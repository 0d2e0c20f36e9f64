"""Command-line entry point: gen | infer | diagnose | sweep | compare.

Exit codes: 0 for completed runs (UNSAT and non-convergence are results,
not failures), 1 for internal errors, 2 for usage errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import product

from . import bp_engine, factor_graph, generators, holonomy, metrics
from . import oracle as oracle_mod
from . import sectors as sectors_mod
from .compile import hatcc_infer, result_to_json_dict
from .nerve import to_dot


def _dump(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.family == "four-cycle":
        graph = generators.gen_four_cycle(args.parity)
        sidecar = {"family": "four-cycle", "parity": args.parity}
    elif args.family == "zk":
        inst = generators.gen_zk_sync(args.topology, args.k, args.eta,
                                      args.eps, args.seed, n=args.n,
                                      rows=args.rows, cols=args.cols,
                                      p=args.p)
        graph = inst.graph
        sidecar = {
            "family": "zk", "k": args.k, "eta": args.eta, "eps": args.eps,
            "seed": args.seed, "x_star": list(inst.x_star),
            "shifts": list(inst.shifts),
            "corrupted": [list(c) for c in inst.corrupted],
        }
    elif args.family == "perm":
        inst = generators.gen_permutation_graph(
            args.topology, args.domain, args.noise, args.seed,
            consistent=args.consistent, n=args.n, rows=args.rows,
            cols=args.cols, p=args.p)
        graph = inst.graph
        sidecar = {
            "family": "perm", "domain": args.domain, "noise": args.noise,
            "seed": args.seed, "consistent": args.consistent,
            "permutations": [list(p) for p in inst.permutations],
        }
    elif args.family == "grid":
        graph = generators.gen_grid_mrf(args.rows, args.cols, args.coupling,
                                        args.field, args.seed)
        sidecar = {"family": "grid", "rows": args.rows, "cols": args.cols,
                   "coupling": args.coupling, "field": args.field,
                   "seed": args.seed}
    else:
        raise AssertionError(args.family)
    factor_graph.save(graph, args.out)
    with open(args.out + ".truth.json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def _marginal_lists(marginals) -> list[list[float]]:
    return [[float(x) for x in m] for m in marginals]


def _infer_payload(graph, method: str, args, seed=None, dec=None) -> dict:
    """JSON payload of one solver run: the CLI's only call into a solver.

    ``args`` carries the inference options (``--max-iters``,
    ``--threshold``, ``--damping``, ``--init``, ``--tol``), ``seed``
    seeds BP's random start, and ``dec`` is a sector decomposition of
    ``graph`` to reuse (None: compute one).
    """
    if method == "bp":
        res = bp_engine.run(graph, max_iters=args.max_iters,
                            residual_threshold=args.threshold,
                            damping=args.damping, init=args.init,
                            seed=seed)
        return {
            "status": "ok",
            "converged": res.converged,
            "oscillating": res.oscillating,
            "iterations": res.iterations,
            "marginals": _marginal_lists(res.beliefs),
            "degenerate": list(res.degenerate),
        }
    if method == "hatcc":
        return result_to_json_dict(hatcc_infer(graph, tol=args.tol))
    if method == "sectors":
        res = sectors_mod.sector_infer(graph, decomposition=dec,
                                       tol=args.tol)
        payload = sectors_mod.sector_report_json(res)
        payload["marginals"] = _marginal_lists(res.marginals)
        return payload
    if method == "oracle":
        res = oracle_mod.exact_marginals(graph)
        return {
            "status": "unsat" if res.unsat else "ok",
            "Z": res.Z,
            "marginals": _marginal_lists(res.marginals),
        }
    raise ValueError(f"unknown method '{method}'")


def cmd_infer(args) -> int:
    graph = factor_graph.load(args.instance)
    _dump(_infer_payload(graph, args.method, args, args.seed))
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def cmd_diagnose(args) -> int:
    graph = factor_graph.load(args.instance)
    report = holonomy.diagnose(graph, tol=args.tol)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(report.nerve, report.backbone))
    if args.checksum:
        print(holonomy.structural_checksum(report))
        return 0
    _dump(holonomy.report_to_json_dict(report))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    """One CSV row per (eps, seed, method).  Each instance is generated,
    decomposed and (with ``--with-oracle``) solved exactly once, and
    every method reuses it; BP's random start is seeded by the seed."""
    methods = args.methods.split(",")
    for method in methods:
        if method not in ("bp", "sectors"):
            raise ValueError(f"unknown sweep method '{method}'")
    rows = []
    for eps, seed in product([float(x) for x in args.eps.split(",")],
                             range(args.seeds)):
        inst = generators.gen_zk_sync(args.topology, args.k, args.eta, eps,
                                      seed, n=args.n, rows=args.rows,
                                      cols=args.cols, p=args.p)
        dec = sectors_mod.decompose(inst.graph, tol=args.tol)
        common = {"family": "zk", "topology": args.topology, "k": args.k,
                  "eta": args.eta, "eps": eps, "seed": seed,
                  "n_generators": len(dec.generators),
                  "n_nontrivial_generators": dec.n_nontrivial,
                  "n_orbits": len(dec.orbits)}
        truth = _infer_payload(inst.graph, "oracle", args) \
            if args.with_oracle else None
        for method in methods:
            res = _infer_payload(inst.graph, method, args, seed, dec)
            if method == "bp":
                row = dict(common, method=method,
                           converged=int(res["converged"]),
                           oscillating=int(res["oscillating"]),
                           iterations=res["iterations"])
            else:
                row = dict(common, method=method, status=res["status"])
            if truth is not None:
                row["mean_tv"] = metrics.mean_tv(res["marginals"],
                                                 truth["marginals"])
                row["mean_log_score"] = metrics.mean_log_score(
                    res["marginals"], inst.x_star)
            rows.append(row)
    rows.sort(key=lambda r: (r["eps"], r["seed"], r["method"]))
    fields = sorted(set().union(*[set(r) for r in rows]))
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    graph = factor_graph.load(args.instance)
    methods = args.methods.split(",")
    results = {m: _infer_payload(graph, m, args, args.seed) for m in methods}
    pairwise = {f"{a}|{b}": metrics.mean_tv(results[a]["marginals"],
                                            results[b]["marginals"])
                for i, a in enumerate(methods) for b in methods[i + 1:]}
    _dump({"methods": results, "pairwise_mean_tv": pairwise})
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_infer_options(p) -> None:
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--init", choices=("ones", "random"), default="ones")
    p.add_argument("--tol", type=float, default=0.0,
                   help="support tolerance for transport kernels: the "
                        "chord tolerance for hatcc and the orbit "
                        "tolerance for sectors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatcc",
        description="Factor-graph inference with holonomy-aware tree "
                    "compilation")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark instance")
    g.add_argument("family", choices=("four-cycle", "zk", "perm", "grid"))
    g.add_argument("--parity", choices=("odd", "even"), default="odd")
    g.add_argument("--topology", choices=("cycle", "grid", "random"),
                   default="cycle")
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--rows", type=int, default=None)
    g.add_argument("--cols", type=int, default=None)
    g.add_argument("--p", type=float, default=0.3)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--eta", type=float, default=0.1)
    g.add_argument("--eps", type=float, default=0.0)
    g.add_argument("--domain", type=int, default=2)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--consistent", action="store_true")
    g.add_argument("--coupling", type=float, default=2.0)
    g.add_argument("--field", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_gen)

    i = sub.add_parser("infer", help="run inference on an instance file")
    i.add_argument("instance")
    i.add_argument("--method", choices=("bp", "hatcc", "sectors", "oracle"),
                   required=True)
    i.add_argument("--seed", type=int, default=None)
    _add_infer_options(i)
    i.set_defaults(func=cmd_infer)

    d = sub.add_parser("diagnose", help="holonomy report for an instance")
    d.add_argument("instance")
    d.add_argument("--tol", type=float, default=0.0)
    d.add_argument("--dot", default=None,
                   help="write a DOT rendering of the nerve/backbone")
    d.add_argument("--checksum", action="store_true",
                   help="print only the structural checksum")
    d.set_defaults(func=cmd_diagnose)

    # no abbreviations: each instance's seed is its index, and a
    # mistyped --seed must not be read as --seeds
    s = sub.add_parser("sweep", help="corruption sweep over zk instances",
                       allow_abbrev=False)
    s.add_argument("--topology", choices=("cycle", "grid", "random"),
                   default="cycle")
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--rows", type=int, default=None)
    s.add_argument("--cols", type=int, default=None)
    s.add_argument("--p", type=float, default=0.3)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--eta", type=float, default=0.1)
    s.add_argument("--eps", default="0,0.25,0.5,0.75,1.0",
                   help="comma-separated corruption fractions")
    s.add_argument("--seeds", type=int, default=20)
    s.add_argument("--methods", default="bp",
                   help="comma-separated subset of bp,sectors")
    s.add_argument("--with-oracle", action="store_true")
    s.add_argument("--out", default=None)
    _add_infer_options(s)
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("compare", help="run several methods on one instance")
    c.add_argument("instance")
    c.add_argument("--methods", default="bp,hatcc,oracle")
    c.add_argument("--seed", type=int, default=None)
    _add_infer_options(c)
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
