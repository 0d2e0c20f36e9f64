"""Evaluation metrics: total variation, log score, Hamming, signatures."""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .holonomy import InterfaceCapExceeded


def mean_tv(beliefs: Sequence[np.ndarray],
            reference: Sequence[np.ndarray]) -> float:
    """Mean over variables of half the L1 distance between marginals."""
    if len(beliefs) != len(reference):
        raise ValueError("belief lists differ in length")
    total = 0.0
    for b, r in zip(beliefs, reference):
        b = np.asarray(b, dtype=np.float64)
        r = np.asarray(r, dtype=np.float64)
        if b.shape != r.shape:
            raise ValueError("marginal shapes differ")
        total += 0.5 * np.abs(b - r).sum()
    return total / len(beliefs) if beliefs else 0.0


def mean_log_score(beliefs: Sequence[np.ndarray],
                   truth: Sequence[int],
                   floor: Optional[float] = None) -> float:
    """Mean log-probability of the true states.

    Zero mass at a true state yields -inf unless an explicit floor is
    given; silent clamping is deliberately avoided.
    """
    if len(beliefs) != len(truth):
        raise ValueError("belief and truth lengths differ")
    total = 0.0
    for b, s in zip(beliefs, truth):
        p = float(np.asarray(b)[s])
        if p <= 0.0:
            if floor is None:
                return float("-inf")
            p = floor
        total += math.log(p)
    return total / len(beliefs) if beliefs else 0.0


def map_hamming(assignment: Sequence[int], truth: Sequence[int]) -> int:
    """Count of disagreeing coordinates."""
    if len(assignment) != len(truth):
        raise ValueError("assignment lengths differ")
    return int(sum(1 for a, b in zip(assignment, truth) if a != b))


def _mode_count(chord_report) -> Optional[int]:
    try:
        return len(chord_report.quotient.modes)
    except InterfaceCapExceeded:  # a rank-1 chord, never composed
        return None


def holonomy_signature(chord_reports,
                       sector_result=None) -> dict:
    """Structural summary: nontrivial generators, orbits, weights.  A
    chord whose holonomy is over its report's interface cap counts
    ``None`` modes."""
    nontrivial = sum(1 for cr in chord_reports if not cr.trivial)
    sig = {
        "n_chords": len(chord_reports),
        "n_nontrivial": nontrivial,
        "mode_counts": list(map(_mode_count, chord_reports)),
    }
    if sector_result is not None:
        sizes = sorted((len(o) for o in
                        sector_result.decomposition.orbits), reverse=True)
        sig["orbit_sizes"] = sizes
        sig["weights"] = sorted(sector_result.weights, reverse=True)
    return sig
