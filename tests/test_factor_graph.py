import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hatcc.compile import hatcc_infer
from hatcc.factor_graph import (SEMIRINGS, FactorDecl, FactorGraph,
                                PotentialSlice, VariableDecl, from_json_dict,
                                joint_weight, load, restrict, save,
                                to_json_dict, validate)
from hatcc.generators import gen_four_cycle


def pairwise_example() -> FactorGraph:
    return FactorGraph("sum_product",
                       (VariableDecl(0, 2), VariableDecl(1, 2)),
                       (FactorDecl(0, (0, 1), [2.0, 1.0, 1.0, 2.0]),))


class TestValidate:
    def test_well_formed_four_cycle(self):
        assert validate(gen_four_cycle("odd")) == []
        assert validate(gen_four_cycle("even")) == []

    def test_table_length_mismatch(self):
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), [1.0, 1.0, 1.0]),))
        problems = validate(g)
        assert len(problems) == 1
        assert "table length 3" in problems[0]
        assert "factor 0" in problems[0]
        # the expected length is an exact integer: an int64 product of
        # two 2**32 cardinalities would wrap to 0 and pass an empty table
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2 ** 32), VariableDecl(1, 2 ** 32)),
                        (FactorDecl(0, (0, 1), []),))
        problems = validate(g)
        assert len(problems) == 1
        assert "expected 18446744073709551616" in problems[0]

    def test_unknown_variable_id(self):
        g = FactorGraph("sum_product", (VariableDecl(0, 2),),
                        (FactorDecl(0, (1,), [1.0, 1.0]),))
        problems = validate(g)
        assert any("unknown variable" in p for p in problems)

    def test_duplicate_scope_rejected(self):
        g = FactorGraph("sum_product", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0, 0), [1.0] * 4),))
        assert any("duplicate" in p for p in validate(g))

    def test_negative_entry_under_sum_product(self):
        g = FactorGraph("sum_product", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [1.0, -1.0]),))
        assert any("negative" in p for p in validate(g))


    @pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
    def test_nan_rejected(self, semiring):
        g = FactorGraph(semiring, (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [np.nan, 1.0]),))
        assert any("NaN" in p for p in validate(g))

    @pytest.mark.parametrize("semiring", ["sum_product", "max_product"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinity_rejected_under_product_semirings(self, semiring,
                                                       value):
        g = FactorGraph(semiring, (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [value, 1.0]),))
        assert any("infinite" in p for p in validate(g))

    def test_minus_infinity_rejected_under_min_sum(self):
        g = FactorGraph("min_sum", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [-np.inf, 1.0]),))
        assert any("-inf" in p for p in validate(g))
        # +inf is the min-sum zero: a forbidden state, not an error
        g = FactorGraph("min_sum", (VariableDecl(0, 2),),
                        (FactorDecl(0, (0,), [np.inf, 1.0]),))
        assert validate(g) == []

    def test_nan_and_inf_table_not_inferred(self):
        g = FactorGraph("sum_product",
                        (VariableDecl(0, 2), VariableDecl(1, 2)),
                        (FactorDecl(0, (0, 1), [np.nan, 1.0, np.inf, 1.0]),))
        assert validate(g)
        with pytest.raises(ValueError):
            hatcc_infer(g)


class TestJointWeight:
    def test_pairwise_entry(self):
        assert joint_weight(pairwise_example(), [0, 0]) == 2.0

    def test_empty_factor_list_gives_one(self):
        g = FactorGraph("sum_product", (VariableDecl(0, 3),), ())
        assert joint_weight(g, [2]) == 1.0

    def test_odd_cycle_has_no_support(self):
        g = gen_four_cycle("odd")
        for idx in range(16):
            assignment = [(idx >> b) & 1 for b in range(4)]
            assert joint_weight(g, assignment) == 0.0

    def test_out_of_range_state(self):
        with pytest.raises(ValueError):
            joint_weight(pairwise_example(), [0, 2])


class TestRestrict:
    def test_sum_product_row_sums(self):
        slc = PotentialSlice((0, 1), [[2.0, 1.0], [1.0, 2.0]])
        out = restrict(slc, (0,), SEMIRINGS["sum_product"])
        assert out.scope == (0,)
        np.testing.assert_array_equal(out.table, [3.0, 3.0])

    def test_full_scope_is_identity(self):
        slc = PotentialSlice((0, 1), [[2.0, 1.0], [1.0, 2.0]])
        out = restrict(slc, (0, 1), SEMIRINGS["sum_product"])
        np.testing.assert_array_equal(out.table, slc.table)

    def test_min_sum_row_mins(self):
        slc = PotentialSlice((0, 1), [[2.0, 1.0], [1.0, 2.0]])
        out = restrict(slc, (0,), SEMIRINGS["min_sum"])
        np.testing.assert_array_equal(out.table, [1.0, 1.0])

    def test_non_subset_rejected(self):
        slc = PotentialSlice((0, 1), [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            restrict(slc, (2,), SEMIRINGS["sum_product"])

    def test_canonical_order_ascending_ids(self):
        # scope declared out of order; restriction reorders ascending
        r = np.random.default_rng(0)
        table = r.uniform(0.5, 2.0, (2, 3, 2))
        slc = PotentialSlice((5, 1, 3), table)
        out = restrict(slc, (5, 3), SEMIRINGS["sum_product"])
        assert out.scope == (3, 5)
        expected = table.sum(axis=1).T
        np.testing.assert_allclose(out.table, expected)

    def test_functoriality_on_nested_scopes(self):
        r = np.random.default_rng(1)
        for _ in range(50):
            table = r.uniform(0.1, 2.0, (2, 3, 2, 3))
            slc = PotentialSlice((0, 1, 2, 3), table)
            sr = SEMIRINGS["sum_product"]
            via = restrict(restrict(slc, (0, 1, 3), sr), (1,), sr)
            direct = restrict(slc, (1,), sr)
            np.testing.assert_allclose(via.table, direct.table, rtol=1e-12)

    def test_elimination_order_independence(self):
        r = np.random.default_rng(2)
        table = r.uniform(0.1, 2.0, (2, 2, 2, 2))
        slc = PotentialSlice((0, 1, 2, 3), table)
        sr = SEMIRINGS["max_product"]
        a = restrict(restrict(slc, (0, 1, 2), sr), (0, 2), sr)
        b = restrict(restrict(slc, (0, 2, 3), sr), (0, 2), sr)
        np.testing.assert_array_equal(a.table, b.table)


finite = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestSemiringAxioms:
    @given(st.sampled_from(["sum_product", "max_product", "boolean"]),
           finite, finite, finite)
    @settings(max_examples=200)
    def test_axioms_additive_zero_semirings(self, name, a, b, c):
        if name == "boolean":
            a, b, c = float(a > 50), float(b > 50), float(c > 50)
        self._check(SEMIRINGS[name], a, b, c)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False),
           st.floats(min_value=-50, max_value=50, allow_nan=False),
           st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=200)
    def test_axioms_min_sum(self, a, b, c):
        self._check(SEMIRINGS["min_sum"], a, b, c)

    @staticmethod
    def _check(sr, a, b, c):
        add, mul = sr.add, sr.mul
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == pytest.approx(add(a, add(b, c)),
                                                  rel=1e-12, abs=1e-12)
        assert add(a, sr.zero) == a
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == pytest.approx(mul(a, mul(b, c)),
                                                  rel=1e-12, abs=1e-12)
        assert mul(a, sr.one) == a
        assert mul(a, sr.zero) == sr.zero or np.isnan(mul(a, sr.zero))


def per_name_normalize(name, vec):
    """The per-name rule ``normalize`` replaced: sum or max to one,
    subtract the min under min-sum; all-zero rows and min-sum rows with
    no finite min unchanged."""
    vec = np.asarray(vec, dtype=np.float64)
    if name == "min_sum":
        m = vec.min(axis=-1, keepdims=True)
        m[~np.isfinite(m)] = 0.0
        return vec - m
    if name == "sum_product":
        total = vec.sum(axis=-1, keepdims=True)
    else:
        total = vec.max(axis=-1, keepdims=True)
    total[~(total > 0.0)] = 1.0
    return vec / total


def carrier_rows(name):
    """Rows of values ``name`` can hold, the degenerate ones included."""
    if name == "boolean":
        return np.array([[(i >> b) & 1 for b in range(3)]
                         for i in range(8)], dtype=np.float64)
    rows = np.random.default_rng(0).uniform(0.0, 3.0, (6, 3))
    rows[1, 0] = rows[2, :2] = 0.0
    rows[3] = 0.0
    rows = np.vstack([rows, [[1e-300, 5e-324, 0.0], [1.7e308, 1.7e308, 1.0]]])
    if name == "min_sum":
        rows = np.vstack([rows - 1.5, [[np.inf, 2.0, -0.5],
                                       [np.inf, np.inf, 0.0],
                                       [np.inf, np.inf, np.inf]]])
    return rows


class TestNormalize:
    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_stacked_rows_match_vectors(self, name):
        sr = SEMIRINGS[name]
        rows = [[0.2, 0.6, 0.2], [0.0, 0.0, 0.0], [3.0, 1.0, 0.5]]
        if name == "min_sum":
            rows += [[np.inf, np.inf, np.inf], [np.inf, 2.0, 0.5]]
        rows = np.array(rows)
        got = sr.normalize(rows[:, None, :])
        assert got.shape == (len(rows), 1, 3)
        for row, out in zip(rows, got):
            np.testing.assert_array_equal(out[0], sr.normalize(row))

    def test_degenerate_rows_unchanged(self):
        zero = np.zeros((2, 3))
        for name in ("sum_product", "max_product", "boolean"):
            np.testing.assert_array_equal(SEMIRINGS[name].normalize(zero),
                                          zero)
        inf = np.full((2, 3), np.inf)
        np.testing.assert_array_equal(SEMIRINGS["min_sum"].normalize(inf),
                                      inf)
        np.testing.assert_array_equal(
            SEMIRINGS["sum_product"].normalize([[1.0, 3.0], [0.0, 0.0]]),
            [[0.25, 0.75], [0.0, 0.0]])
        np.testing.assert_array_equal(
            SEMIRINGS["min_sum"].normalize([[2.0, 3.0], [np.inf, np.inf]]),
            [[0.0, 1.0], [np.inf, np.inf]])

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_equals_per_name_rule_bitwise(self, name):
        rows = carrier_rows(name)
        for stacked in (rows, rows.reshape(-1, 1, 3), rows[0]):
            with np.errstate(over="ignore"):  # a total may overflow to inf
                got = SEMIRINGS[name].normalize(stacked)
                want = per_name_normalize(name, stacked)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_nan_row_comes_out_all_nan(self):
        # outside every carrier: validate rejects NaN
        row = [np.nan, 1.0, 2.0]
        for name in ("sum_product", "max_product", "min_sum"):
            assert np.isnan(SEMIRINGS[name].normalize(row)).all()
        np.testing.assert_array_equal(SEMIRINGS["boolean"].normalize(row),
                                      row)

    def test_fractional_boolean_row_passes_unscaled(self):
        # outside Boolean's carrier, which validate and run reject
        np.testing.assert_array_equal(
            SEMIRINGS["boolean"].normalize([0.5, 0.25]), [0.5, 0.25])

    def test_min_sum_tolerance_marks_only_inf_zero(self):
        got = SEMIRINGS["min_sum"].is_zero([np.inf, 0.0, 0.4, 1e308], tol=0.5)
        np.testing.assert_array_equal(got, [True, False, False, False])

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_add_reduce_is_add_reduce(self, name):
        sr = SEMIRINGS[name]
        assert sr.add_reduce == sr.add.reduce


class TestVarNeighbors:
    def test_ascending_ids_and_fresh_list(self):
        g = FactorGraph("sum_product", tuple(VariableDecl(i, 2)
                                              for i in range(4)),
                        (FactorDecl(0, (2, 0), np.ones(4)),
                         FactorDecl(1, (1,), np.ones(2)),
                         FactorDecl(2, (0, 1), np.ones(4)),
                         FactorDecl(3, (), [1.0])))
        assert [g.var_neighbors(v) for v in range(4)] == \
            [[0, 2], [1, 2], [0], []]
        g.var_neighbors(0).append(3)
        assert g.var_neighbors(0) == [0, 2]


class TestJsonIO:
    def test_round_trip(self, tmp_path):
        g = gen_four_cycle("odd")
        path = tmp_path / "inst.json"
        save(g, path)
        g2 = load(path)
        assert g2.semiring == g.semiring
        assert g2.variables == g.variables
        assert len(g2.factors) == len(g.factors)
        for a, b in zip(g.factors, g2.factors):
            assert a.scope == b.scope
            np.testing.assert_array_equal(a.table, b.table)

    def test_missing_cardinality_named(self):
        data = to_json_dict(gen_four_cycle("even"))
        del data["variables"][0]["cardinality"]
        with pytest.raises(ValueError, match="cardinality"):
            from_json_dict(data)

    def test_negative_table_rejected_on_load(self, tmp_path):
        data = to_json_dict(gen_four_cycle("even"))
        data["factors"][0]["table"][0] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="negative"):
            load(path)

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="parse error"):
            load(path)
