"""Self-checks of the benchmark's references, checker and tracer.

Run with ``python3 -m pytest perfbench``.  Each exact reference is checked
against ``hatcc.oracle`` on instances small enough to enumerate.
"""
import json
import sys

import numpy as np
import pytest

import hatcc
from hatcc import oracle
from hatcc.factor_graph import FactorDecl, FactorGraph

import refs
import run
import tracer
import workloads

TOL = 1e-10


def small_perm(seed, n=6):
    inst = hatcc.gen_permutation_graph("random", 3, 0.0, seed,
                                       consistent=True, n=n, p=0.5)
    rng = np.random.default_rng(seed)
    return workloads._with_unary(hatcc, inst.graph, rng, 0.5, 2.0)


def assert_matches_oracle(graph, ref):
    """Sum-product Z and marginals, or max/min-sum optimum, vs the oracle."""
    if graph.semiring == "sum_product":
        want = oracle.exact_marginals(graph)
        assert abs(ref.Z - want.Z) <= TOL * want.Z
        for a, b in zip(ref.marginals, want.marginals):
            np.testing.assert_allclose(a, b, rtol=0, atol=TOL)
    else:
        want = oracle.exact_map(graph)
        assert abs(ref.Z - want.weight) <= TOL * max(1.0, abs(want.weight))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("semiring", workloads.SEMIRINGS)
def test_perm_reference_matches_oracle(seed, semiring):
    graph = workloads._in_semiring(hatcc, small_perm(seed), semiring)
    ref = refs.perm_reference(graph)
    assert_matches_oracle(graph, ref)
    brute = refs.brute_force_reference(graph)
    assert workloads.marginal_error(semiring, ref.marginals,
                                    brute.marginals) <= TOL


def test_perm_reference_rejects_inconsistent_cycles():
    inst = hatcc.gen_permutation_graph("cycle", 3, 0.0, 5, consistent=False,
                                       n=5)
    with pytest.raises(ValueError):
        refs.perm_reference(inst.graph)


@pytest.mark.parametrize("rows,cols", [(1, 5), (3, 3), (2, 4), (4, 3)])
@pytest.mark.parametrize("coupling", [0.6, 1.6])
def test_grid_reference_matches_oracle(rows, cols, coupling):
    graph = hatcc.gen_grid_mrf(rows, cols, coupling, 0.5, rows * cols)
    assert_matches_oracle(graph, refs.grid_reference(graph, rows, cols))


def test_grid_reference_reads_table_orientation():
    # a vertical factor declared bottom-to-top, with an asymmetric table
    graph = hatcc.gen_grid_mrf(2, 2, 1.3, 0.4, 0)
    factors = list(graph.factors)
    factors.append(FactorDecl(len(factors), (3, 1),
                              np.array([0.2, 1.0, 0.7, 0.1])))
    graph = FactorGraph("sum_product", graph.variables, tuple(factors))
    assert_matches_oracle(graph, refs.grid_reference(graph, 2, 2))


@pytest.mark.parametrize("seed", range(3))
def test_brute_force_reference_matches_oracle(seed):
    pool = workloads.build_verify_small(hatcc, seed)
    for inst in pool:
        graph = inst.graphs["sum_product"]
        if np.prod([v.cardinality for v in graph.variables]) > 2 ** 10:
            continue
        for semiring, g in inst.graphs.items():
            assert_matches_oracle(g, refs.brute_force_reference(g))


def test_brute_force_reference_chunks_agree():
    graph = workloads.build_verify_small(hatcc, 0)[0].graphs["sum_product"]
    whole = refs.brute_force_reference(graph)
    saved = refs.CHUNK_STATES
    refs.CHUNK_STATES = 7
    try:
        chunked = refs.brute_force_reference(graph)
    finally:
        refs.CHUNK_STATES = saved
    assert abs(whole.Z - chunked.Z) <= TOL * whole.Z
    assert workloads.marginal_error("sum_product", whole.marginals,
                                    chunked.marginals) <= TOL


def test_marginal_error_compares_infinite_entries_by_position():
    inf = np.inf
    want = (np.array([0.0, inf, 2.0]),)
    assert workloads.marginal_error("min_sum", (np.array([0.0, inf, 2.0]),),
                                    want) == 0.0
    assert workloads.marginal_error("min_sum", (np.array([0.0, 1.0, 2.0]),),
                                    want) == inf


def test_check_flags_a_wrong_exact_answer_as_unexpected():
    pool = workloads.build_verify_small(hatcc, 0)
    inst = pool[0]
    inst.refs["sum_product"] = refs.brute_force_reference(
        inst.graphs["sum_product"])
    op = workloads.Op("oracle", inst, "sum_product")
    good = oracle.exact_marginals(inst.graphs["sum_product"])
    assert workloads.check(op, good).kind == "ok"
    bad = oracle.OracleMarginals(good.Z * 1.01, good.marginals, False)
    outcome = workloads.check(op, bad)
    assert outcome.kind == "wrong_ok" and outcome.known is None
    unsat = oracle.OracleMarginals(0.0, good.marginals, True)
    assert workloads.check(op, unsat).kind == "false_unsat"


def test_tracer_restores_every_attribute_and_skips_missing_sites(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "nerve.gone",
                        (["nerve:no_such_function"], None))
    before = {name: [tracer_site(site) for site in sites]
              for name, (sites, _note) in tracer.TARGETS.items()}
    graph = small_perm(0)
    entry = hatcc.compile.hatcc_infer
    tr = tracer.Tracer()
    with tr.installed():
        assert hatcc.compile.diagnose is not before["holonomy.diagnose"][0]
        tr.call(0, "compile.hatcc_infer", entry, graph)
    after = {name: [tracer_site(site) for site in sites]
             for name, (sites, _note) in tracer.TARGETS.items()}
    assert after == before
    assert tr.missing == ["nerve:no_such_function"]
    stats = tracer.SpanStats(tr)
    assert stats.count("compile.hatcc_infer") == 1
    assert stats.count("holonomy.diagnose") == 1
    assert stats.count("holonomy.transport_kernel") > 0
    assert np.all(stats.self_time >= 0)
    # every span but the op nests inside the op
    assert len(stats.roots) == 1


def tracer_site(site):
    module_name, _, path = site.partition(":")
    owner = getattr(hatcc, module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return getattr(owner, attr, None)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    entry = hatcc.compile.hatcc_infer
    tr = tracer.Tracer()
    with tr.installed():
        tr.call(0, "compile.hatcc_infer", entry, small_perm(0))
    names = list(tracer.layer_metrics(tracer.SpanStats(tr), 1, 0.0))
    names += ["trace.overhead_frac"] + [f"trace.{m}_layer_cover_frac"
                                        for m in run.COVERED_METHODS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.unit_of(name) for name in names}


@pytest.mark.parametrize("trace", [0, 1])
def test_one_pass_prints_the_result_line_last(trace, capsys):
    # run.main re-imports hatcc; give the other tests their modules back
    saved = {k: v for k, v in sys.modules.items()
             if k == "hatcc" or k.startswith("hatcc.")}
    try:
        assert run.main(["--workload", "verify-small", "--seed", "0",
                         "--seconds", "0.01", "--trace", str(trace)]) == 0
    finally:
        sys.modules.update(saved)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
