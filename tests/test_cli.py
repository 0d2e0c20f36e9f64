import csv
import json

import pytest

from hatcc import factor_graph, generators, metrics, oracle, sectors
from hatcc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def even_cycle(tmp_path, capsys):
    path = str(tmp_path / "even.json")
    code, _out, _err = run(capsys, "gen", "four-cycle", "--parity", "even",
                           "-o", path)
    assert code == 0
    return path


class TestGen:
    def test_writes_instance_and_sidecar(self, tmp_path, capsys):
        path = str(tmp_path / "inst.json")
        code, out, _ = run(capsys, "gen", "zk", "--topology", "cycle",
                           "--n", "5", "--k", "3", "--eta", "0.2",
                           "--eps", "0.5", "--seed", "4", "-o", path)
        assert code == 0
        assert "wrote" in out
        inst = json.load(open(path))
        assert inst["semiring"] == "sum_product"
        assert len(inst["variables"]) == 5
        truth = json.load(open(path + ".truth.json"))
        assert truth["family"] == "zk"
        assert len(truth["x_star"]) == 5

    @pytest.mark.parametrize("argv, keys", [
        (["perm", "--n", "5", "--domain", "3", "--consistent"],
         {"permutations"}),
        (["grid", "--rows", "3", "--cols", "4", "--field", "0.5"],
         {"rows", "cols", "coupling"})])
    def test_perm_and_grid_families(self, argv, keys, tmp_path, capsys):
        path = str(tmp_path / "inst.json")
        code, _out, _err = run(capsys, "gen", *argv, "-o", path)
        assert code == 0
        assert factor_graph.validate(factor_graph.load(path)) == []
        truth = json.load(open(path + ".truth.json"))
        assert truth["family"] == argv[0] and keys <= set(truth)

    def test_invalid_parameter_exits_one(self, tmp_path, capsys):
        code, _out, err = run(capsys, "gen", "zk", "--eta", "0", "--n", "5",
                              "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "error:" in err

    def test_unknown_family_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["gen", "mystery", "-o", str(tmp_path / "x.json")])
        assert ei.value.code == 2


class TestInfer:
    def test_oracle_even_cycle(self, even_cycle, capsys):
        code, out, _ = run(capsys, "infer", even_cycle, "--method", "oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["Z"] == 2.0

    def test_hatcc_matches_oracle(self, even_cycle, capsys):
        code, out, _ = run(capsys, "infer", even_cycle, "--method", "hatcc")
        assert code == 0
        payload = json.loads(out)
        assert payload["Z"] == pytest.approx(2.0)
        assert payload["holonomy"]["n_chords"] == 1

    def test_hatcc_reports_each_chord(self, even_cycle, capsys):
        code, out, _ = run(capsys, "infer", even_cycle, "--method", "hatcc")
        assert code == 0
        payload = json.loads(out)
        assert "chords" not in payload
        assert payload["holonomy"]["chords"] == [{
            "chord": [2, 3], "interface": [3], "interface_states": 2,
            "cycle_length": 4, "rank_one": False, "trivial": True,
            "matrix_rows": ["10", "01"], "mode_sizes": [1, 1]}]
        assert payload["max_clique_entries"] == 4
        assert "reason" not in payload

    def test_hatcc_times_the_holonomy_phase(self, even_cycle, capsys):
        code, out, _ = run(capsys, "infer", even_cycle, "--method", "hatcc")
        assert code == 0
        timings = json.loads(out)["timings_ms"]
        assert set(timings) == {"validate", "nerve", "backbone", "cycles",
                                "holonomy", "augment", "propagate",
                                "marginalize"}
        assert all(t >= 0 for t in timings.values())

    def test_unsat_is_result_not_error(self, tmp_path, capsys):
        path = str(tmp_path / "odd.json")
        run(capsys, "gen", "four-cycle", "--parity", "odd", "-o", path)
        code, out, _ = run(capsys, "infer", path, "--method", "hatcc")
        assert code == 0
        assert json.loads(out)["status"] == "unsat"

    def test_bp_reports_convergence_fields(self, even_cycle, capsys):
        code, out, _ = run(capsys, "infer", even_cycle, "--method", "bp")
        assert code == 0
        payload = json.loads(out)
        assert {"converged", "oscillating", "iterations"} <= set(payload)

    def test_bp_damping_of_one_exits_one(self, even_cycle, capsys):
        code, _out, err = run(capsys, "infer", even_cycle, "--method", "bp",
                              "--damping", "1")
        assert code == 1
        assert "damping must be in [0, 1), got 1.0" in err

    def test_missing_file_exits_one(self, capsys):
        code, _out, err = run(capsys, "infer", "/nonexistent.json",
                              "--method", "bp")
        assert code == 1
        assert "error:" in err

    def test_sectors_smoke(self, even_cycle, capsys):
        code, out, _ = run(capsys, "infer", even_cycle, "--method", "sectors")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["orbit_sizes"] == [1, 1]
        assert len(payload["evidences"]) == 2
        assert [sum(m) for m in payload["marginals"]] == pytest.approx(
            [1.0] * 4)

    def test_output_byte_stable(self, even_cycle, capsys):
        _c, out1, _ = run(capsys, "infer", even_cycle, "--method", "hatcc")
        _c, out2, _ = run(capsys, "infer", even_cycle, "--method", "hatcc")
        # timings jitter; everything else must be identical
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("timings_ms"), p2.pop("timings_ms")
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2,
                                                            sort_keys=True)


class TestDiagnose:
    def test_checksum_stable(self, even_cycle, capsys):
        _c, out1, _ = run(capsys, "diagnose", even_cycle, "--checksum")
        _c, out2, _ = run(capsys, "diagnose", even_cycle, "--checksum")
        assert out1 == out2
        assert len(out1.strip()) == 64

    def test_report_and_dot(self, even_cycle, tmp_path, capsys):
        dot = str(tmp_path / "nerve.dot")
        code, out, _ = run(capsys, "diagnose", even_cycle, "--dot", dot)
        assert code == 0
        payload = json.loads(out)
        assert payload["n_chords"] == 1
        text = open(dot).read()
        assert "style=dashed" in text

    def test_prints_the_chord_list_of_infer(self, tmp_path, capsys):
        path = str(tmp_path / "grid.json")
        run(capsys, "gen", "grid", "--rows", "3", "--cols", "4", "-o", path)
        _c, out, _ = run(capsys, "diagnose", path)
        chords = json.loads(out)["chords"]
        _c, out, _ = run(capsys, "infer", path, "--method", "hatcc")
        assert len(chords) == 6
        assert json.loads(out)["holonomy"]["chords"] == chords


class TestSweep:
    def test_csv_row_count_and_columns(self, tmp_path, capsys):
        out_path = str(tmp_path / "sweep.csv")
        code, _out, _ = run(capsys, "sweep", "--topology", "cycle",
                            "--n", "5", "--eps", "0,1.0", "--seeds", "2",
                            "--methods", "bp", "--tol", "0.05",
                            "--out", out_path)
        assert code == 0
        rows = list(csv.DictReader(open(out_path)))
        assert len(rows) == 4
        assert {"eps", "seed", "method", "converged",
                "n_nontrivial_generators"} <= set(rows[0])
        # rows sorted by (eps, seed, method)
        keys = [(float(r["eps"]), int(r["seed"])) for r in rows]
        assert keys == sorted(keys)

    # the instances the sweep tests run, seeds 0 and 1: uncorrupted Z2
    # 5-cycles, whose trivial holonomy splits the base fiber into two
    # orbits of a loopy model whose marginals are not uniform
    ZK = ("--topology", "cycle", "--n", "5", "--eps", "0")

    def sweep_rows(self, capsys, *flags):
        code, out, _ = run(capsys, "sweep", *self.ZK, "--seeds", "2",
                           "--tol", "0.05", "--with-oracle", *flags)
        assert code == 0
        return list(csv.DictReader(out.splitlines()))

    def infer(self, tmp_path, capsys, seed, method, *flags):
        path = str(tmp_path / f"zk{seed}.json")
        run(capsys, "gen", "zk", *self.ZK, "--seed", str(seed), "-o", path)
        code, out, _ = run(capsys, "infer", path, "--method", method,
                           "--tol", "0.05", *flags)
        assert code == 0
        return json.loads(out)

    def test_bp_rows_honour_inference_flags(self, tmp_path, capsys):
        flags = ("--damping", "0.5", "--init", "random")
        rows = self.sweep_rows(capsys, "--methods", "bp", *flags)
        assert len(rows) == 2
        for row in rows:
            seed = int(row["seed"])
            truth = self.infer(tmp_path, capsys, seed, "oracle")["marginals"]
            damped = self.infer(tmp_path, capsys, seed, "bp", *flags,
                                "--seed", str(seed))["marginals"]
            plain = self.infer(tmp_path, capsys, seed, "bp", "--init",
                               "random", "--seed", str(seed))["marginals"]
            assert metrics.mean_tv(damped, plain) > 0.0
            assert float(row["mean_tv"]) == metrics.mean_tv(damped, truth)

    def test_sectors_rows_exact(self, capsys):
        rows = self.sweep_rows(capsys, "--methods", "sectors")
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "ok"
            assert float(row["mean_tv"]) < 1e-10

    def test_unknown_method_exits_one(self, capsys):
        code, _out, err = run(capsys, "sweep", "--n", "4", "--seeds", "1",
                              "--eps", "0", "--methods", "bp,bogus")
        assert code == 1
        assert "unknown sweep method" in err

    def test_seed_option_rejected(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["sweep", *self.ZK, "--seeds", "1", "--seed", "3"])
        assert ei.value.code == 2

    def test_each_instance_built_and_solved_once(self, capsys, monkeypatch):
        calls = {"gen_zk_sync": 0, "decompose": 0, "exact_marginals": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(generators, "gen_zk_sync")
        counted(sectors, "decompose")
        counted(oracle, "exact_marginals")
        rows = self.sweep_rows(capsys, "--methods", "bp,sectors")
        assert len(rows) == 4
        assert calls == {"gen_zk_sync": 2, "decompose": 2,
                         "exact_marginals": 2}


class TestCompare:
    def test_pairwise_tv_reported(self, even_cycle, capsys):
        code, out, _ = run(capsys, "compare", even_cycle,
                           "--methods", "hatcc,oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["pairwise_mean_tv"]["hatcc|oracle"] < 1e-12

    def test_bp_sectors_oracle_smoke(self, even_cycle, capsys):
        code, out, _ = run(capsys, "compare", even_cycle,
                           "--methods", "bp,sectors,oracle")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["methods"]) == {"bp", "sectors", "oracle"}
        tv = payload["pairwise_mean_tv"]
        assert set(tv) == {"bp|sectors", "bp|oracle", "sectors|oracle"}
        assert tv["sectors|oracle"] < 1e-9

    def test_unknown_method_exits_one(self, even_cycle, capsys):
        code, _out, err = run(capsys, "compare", even_cycle,
                              "--methods", "bp,mystery")
        assert code == 1
        assert "unknown method 'mystery'" in err
