#!/usr/bin/env python3
"""hatcc benchmark: one process, one thread, one client in a closed loop.

    python3 perfbench/run.py --workload compile-perm --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; ``hatcc`` is imported from its ``src/``.
The run builds the workload's instances from ``--seed``, computes the
benchmark's own exact reference for each, runs one untimed warm-up op per
method, then repeats passes over the workload's ops until ``--seconds``
have elapsed, checking every output against its reference.  Before each
pass it times a few fresh imports of ``hatcc`` plus instance generation
(``setup_s``), so that set-up is sampled across the whole run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes in which every ``hatcc`` layer is wrapped by
the tracer, and prints the per-layer metrics.  Each metric is
printed by name with its unit, a breakdown per method follows, and the last
line is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A result file with provenance, and the spans of a traced run, go to
``perfbench/out/``.
"""
import os

# BLAS and OpenMP pools must be pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import METHODS, WORKLOADS, Outcome, check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PER_PASS = 3
GEN_REPEATS = 3
P90_MIN_OPS = 100
COVERED_METHODS = ("hatcc", "bp")  # entry points with a trace.*_cover_frac
END_TO_END_UNITS = {"lead.op_s_gmean": "s", "hatcc.op_s_gmean": "s",
                    "op_s_gmean": "s", "ops_per_s": "1/s", "ok_frac": "frac",
                    "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Record:
    index: int  # position of the op within a pass
    seconds: float
    outcome: Outcome


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def hatcc_modules():
    return [m for m in sys.modules if m == "hatcc" or m.startswith("hatcc.")]


def import_hatcc():
    """Import ``hatcc`` afresh from this checkout's ``src/``."""
    for name in hatcc_modules():
        del sys.modules[name]
    hc = importlib.import_module("hatcc")
    if Path(hc.__file__).resolve().parent != ROOT / "src" / "hatcc":
        raise ImportError(f"hatcc imported from {hc.__file__}, not from "
                          f"{ROOT / 'src'}")
    return hc


def time_setup(workload, seed):
    """Time one fresh import of ``hatcc`` plus instance generation.

    The modules loaded before are put back afterwards, so the run's ops
    keep using one copy of ``hatcc``.
    """
    saved = {name: sys.modules[name] for name in hatcc_modules()}
    gc.collect()
    t0 = time.perf_counter()
    workload.build(import_hatcc(), seed)
    seconds = time.perf_counter() - t0
    for name in hatcc_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return seconds


def run_pass(ops, calls, records, tracer=None, deadline=None):
    """One pass over ``ops``, appending a Record per op; cut short once
    ``deadline`` has passed."""
    for j, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            return
        fn, kwargs = calls[op.method]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = fn(op.graph, **kwargs)
            else:
                result = tracer.call(len(records), op.kind, fn, op.graph,
                                     **kwargs)
        except Exception as exc:  # a failed op is a result, not a crash
            dt = time.perf_counter() - t0
            outcome = Outcome("exception", detail=repr(exc))
        else:
            dt = time.perf_counter() - t0
            outcome = check(op, result)
        records.append(Record(j, dt, outcome))


def run_passes(workload, seed, ops, calls, seconds):
    """Passes over ``ops`` until ``seconds`` have elapsed, each after
    SETUP_PER_PASS timed set-ups; every pass but the first is cut at the
    deadline.  Returns the records, the set-up times and one machine probe
    per pass."""
    records, setups, probes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        setups += [time_setup(workload, seed) for _ in range(SETUP_PER_PASS)]
        run_pass(ops, calls, records, deadline=deadline if records else None)
        probes.append(machine_probe())
        if time.perf_counter() >= deadline:
            return records, setups, probes


def breakdown(ops, records):
    """Per-method latency over all samples, failures and accuracy."""
    med = per_op_median(records, len(ops))
    out = {}
    for method in METHODS:
        recs = [r for r in records if ops[r.index].method == method]
        if not recs:
            continue
        lat = [r.seconds for r in recs]
        kind = ops[recs[0].index].kind
        entry = {"entry_point": kind, "ops": len(recs),
                 "op_s_p50": statistics.median(lat),
                 "op_s_p90": float(np.percentile(lat, 90))
                 if len(lat) >= P90_MIN_OPS else None,
                 "op_s_gmean": gmean([med[j] for j, op in enumerate(ops)
                                      if op.method == method]),
                 "fail_frac": sum(r.outcome.kind != "ok" for r in recs)
                 / len(recs),
                 "failures": dict(collections.Counter(
                     f"{ops[r.index].semiring}/{r.outcome.kind}/"
                     f"{r.outcome.known or 'unexpected'}"
                     for r in recs if r.outcome.kind != "ok"))}
        if method in ("bp", "sectors"):
            entry["mean_tv"] = float(np.mean([r.outcome.marg_err
                                              for r in recs]))
        out[method] = entry
    return out


def per_op_median(records, n):
    """Median latency of each of the ``n`` ops of a pass over the run."""
    samples = [[] for _ in range(n)]
    for r in records:
        samples[r.index].append(r.seconds)
    return np.array([statistics.median(s) for s in samples])


def gmean(values):
    return float(np.exp(np.mean(np.log(values))))


def end_to_end(workload, ops, records, setups):
    """End-to-end metrics of an untraced run.

    Latencies are each op's median time over the run's passes, combined
    over ops by geometric mean.  On a shared host single calls jitter by
    tens of percent, so the fastest of a few repeats is itself noisy; the
    median over a whole run is steadier from run to run.  Throughput and
    ok share are per pass, from each op's mean over the run, so that the
    last pass, cut at the deadline, does not weigh its early ops twice.
    """
    n = len(ops)
    med = per_op_median(records, n)
    methods = np.array([op.method for op in ops])
    mean_s = per_index_mean(records, [r.seconds for r in records], n)
    completed = per_index_mean(
        records, [r.outcome.kind != "exception" for r in records], n)
    ok = per_index_mean(records, [r.outcome.kind == "ok" for r in records], n)
    return {
        "lead.op_s_gmean": gmean(med[methods == workload.lead]),
        "hatcc.op_s_gmean": gmean(med[methods == "hatcc"]),
        "op_s_gmean": gmean(med),
        "ops_per_s": float(completed.sum() / mean_s.sum()),
        "ok_frac": float(ok.mean()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_index_mean(records, values, n):
    """Mean of ``values`` per op position, over the passes of ``records``."""
    index = np.array([r.index for r in records])
    return np.bincount(index, weights=values, minlength=n) / \
        np.bincount(index, minlength=n)


def traced_run(hc, workload, seed, ops, calls, seconds):
    """Alternating untraced and traced passes; per-layer metrics."""
    gen_times = []
    for _ in range(GEN_REPEATS):
        with tracing.Tracer().installed() as gen_tracer:
            workload.build(hc, seed)
        gen_stats = tracing.SpanStats(gen_tracer)
        gen_times.append(float(gen_stats.dur[gen_stats.roots].sum()))
    gen_s = statistics.median(gen_times)

    # untraced and traced passes alternate, so that drift in machine speed
    # does not bias the overhead estimate; they stay whole, so that per-op
    # counts repeat exactly from run to run
    untraced, traced, probes = [], [], []
    tr = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(ops, calls, untraced)
        probes.append(machine_probe())
        with tr.installed():
            run_pass(ops, calls, traced, tr)
        if time.perf_counter() >= deadline:
            break
    stats = tracing.SpanStats(tr)
    metrics = tracing.layer_metrics(stats, len(traced), gen_s)

    n = len(ops)
    untraced_mean = per_index_mean(untraced, [r.seconds for r in untraced], n)
    traced_mean = per_index_mean(traced, stats.dur[stats.roots], n)
    child_mean = per_index_mean(traced, stats.child[stats.roots], n)
    metrics["trace.overhead_frac"] = \
        float(traced_mean.sum() / untraced_mean.sum() - 1.0)
    # share of the traced entry-point time spent inside layer spans below it
    for method in COVERED_METHODS:
        sel = np.array([op.method == method for op in ops])
        metrics[f"trace.{method}_layer_cover_frac"] = \
            float(child_mean[sel].sum() / traced_mean[sel].sum()) \
            if sel.any() else 0.0
    info = {"missing_sites": tr.missing, "note_errors": tr.note_errors,
            "spans": len(stats.dur)}
    return untraced + traced, probes, metrics, tr, info


PER_LAYER_UNITS = {"_per_s": "1/s", "_frac": "frac", "_s": "s"}


def unit_of(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def machine_probe():
    """Time of a fixed pure-Python loop, a gauge of machine speed.

    Taken after every untraced pass, so that a run made while the machine
    was slow can be recognised in its result file.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - t0


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text()
            for line in packed.splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, hc, ops, records, probes):
    counts = {}
    for r in records:
        kind = ops[r.index].kind
        counts[kind] = counts.get(kind, 0) + 1
    return {
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "hatcc": getattr(hc, "__version__", "unknown"),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "op_counts": counts,
        "machine_probe_s": {"median": statistics.median(probes),
                            "min": min(probes)},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hatcc" / "__init__.py").is_file():
        print(f"error: no hatcc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    hc = import_hatcc()
    pool = workload.build(hc, args.seed)
    for inst in pool:
        for semiring in inst.graphs:
            inst.refs[semiring] = workload.reference(inst, semiring)
    ops = workload.ops(pool)
    calls = {}
    for method, (module, attr, kwargs) in METHODS.items():
        calls[method] = (getattr(getattr(hc, module), attr), kwargs)
    for method in {op.method for op in ops}:
        warm = next(op for op in ops if op.method == method)
        fn, kwargs = calls[method]
        fn(warm.graph, **kwargs)
    gc.collect()

    trace_info = {}
    if args.trace:
        records, probes, metrics, tr, trace_info = traced_run(
            hc, workload, args.seed, ops, calls, args.seconds)
    else:
        records, setups, probes = run_passes(workload, args.seed, ops, calls,
                                             args.seconds)
        metrics = end_to_end(workload, ops, records, setups)
    units = END_TO_END_UNITS if not args.trace else \
        {name: unit_of(name) for name in metrics}

    methods = breakdown(ops, records)
    failures = [r.outcome for r in records if r.outcome.kind != "ok"]
    unexpected = [o for o in failures if o.known is None]
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for method, entry in methods.items():
        print(f"method {method} " + json.dumps(entry, sort_keys=True))
    known = dict(collections.Counter(o.known for o in failures if o.known))
    print("known_defects " + json.dumps(known, sort_keys=True))
    for o in unexpected[:5]:
        print(f"unexpected_failure {o.kind} {o.detail}")
    if trace_info:
        print("trace " + json.dumps(trace_info, sort_keys=True))
    print(f"machine_probe_s median={statistics.median(probes)!r} "
          f"min={min(probes)!r}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr.save(OUT / f"{stem}-spans.npz")
    result = {"correct": not unexpected, "attempted": len(records),
              "failed": len(unexpected),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": provenance(args, hc, ops, records, probes),
                   "result": result, "methods": methods,
                   "known_defects": known, "trace": trace_info}, fh,
                  indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
