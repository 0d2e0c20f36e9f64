import math

import numpy as np
import pytest

from hatcc.generators import gen_four_cycle, gen_grid_mrf, gen_zk_sync
from hatcc.holonomy import diagnose
from hatcc.metrics import (holonomy_signature, map_hamming, mean_log_score,
                           mean_tv)
from hatcc.sectors import sector_infer


class TestMeanTv:
    def test_identical_zero(self):
        m = [np.array([0.3, 0.7]), np.array([0.5, 0.5])]
        assert mean_tv(m, m) == 0.0

    def test_disjoint_support_one(self):
        a = [np.array([1.0, 0.0])]
        b = [np.array([0.0, 1.0])]
        assert mean_tv(a, b) == 1.0

    def test_hand_computed_mean(self):
        a = [np.array([0.6, 0.4]), np.array([1.0, 0.0])]
        b = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
        assert mean_tv(a, b) == pytest.approx((0.1 + 0.5) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_tv([np.array([1.0])], [])


class TestMeanLogScore:
    def test_certain_prediction(self):
        assert mean_log_score([np.array([1.0, 0.0])], [0]) == 0.0

    def test_hand_computed(self):
        beliefs = [np.array([0.25, 0.75]), np.array([0.5, 0.5])]
        got = mean_log_score(beliefs, [1, 0])
        assert got == pytest.approx((math.log(0.75) + math.log(0.5)) / 2)

    def test_zero_mass_is_minus_inf(self):
        assert mean_log_score([np.array([1.0, 0.0])], [1]) == -math.inf

    def test_floor_replaces_zero_mass(self):
        got = mean_log_score([np.array([1.0, 0.0])], [1], floor=1e-9)
        assert got == pytest.approx(math.log(1e-9))


class TestMapHamming:
    def test_counts_disagreements(self):
        assert map_hamming((0, 1, 1, 0), (0, 0, 1, 1)) == 2
        assert map_hamming((), ()) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            map_hamming((0,), (0, 1))


class TestHolonomySignature:
    def test_worked_cycle_signature(self):
        rep = diagnose(gen_four_cycle("odd"))
        sig = holonomy_signature(rep.chords)
        assert sig == {"n_chords": 1, "n_nontrivial": 1, "mode_counts": [1]}

    def test_over_cap_chords_count_no_modes(self):
        # cap 1 leaves every rank-1 holonomy of the grid uncomposed
        grid = gen_grid_mrf(3, 3, 2.0, 0.3, 0)
        sig = holonomy_signature(diagnose(grid, cap=1).chords)
        assert sig == {"n_chords": 4, "n_nontrivial": 4,
                       "mode_counts": [None] * 4}
        assert holonomy_signature(diagnose(grid).chords)["mode_counts"] \
            == [1] * 4

    def test_with_sector_result(self):
        inst = gen_zk_sync("cycle", 2, 0.1, 1.0, 0, n=3)
        rep = diagnose(inst.graph, tol=0.05)
        res = sector_infer(inst.graph, tol=0.05)
        sig = holonomy_signature(rep.chords, res)
        assert sig["orbit_sizes"] == [2]
        assert sig["weights"] == [1.0]
