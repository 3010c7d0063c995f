"""Network-level performance metrics used in the paper's evaluation.

Aggregate throughput is the paper's objective; Jain's fairness index
(§V-E) and per-user win/loss fractions (Fig. 4b) quantify the side
effects of throughput-maximizing association.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["jain_fairness", "PerUserComparison", "compare_per_user",
           "bottom_k_users", "top_k_users"]


def jain_fairness(throughputs: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    Ranges over ``(0, 1]``; 1 means perfectly equal allocation.  An empty
    or all-zero allocation returns 0 by convention.
    """
    x = np.asarray(list(throughputs), dtype=float)
    if x.size == 0:
        return 0.0
    if np.any(x < 0):
        raise ValueError("throughputs must be non-negative")
    # Rescale by a power of two so the peak lies in [0.5, 1): the index
    # is scale-invariant, the rescale is exact for normal floats, and the
    # squares can no longer underflow into subnormals (which pushed the
    # index above 1 for tiny inputs) or overflow for huge ones.
    _, exponent = np.frexp(np.max(x))
    x = np.ldexp(x, -exponent)
    denom = x.size * float(np.sum(x * x))
    if denom == 0.0:
        return 0.0
    return float(np.sum(x)) ** 2 / denom


@dataclass(frozen=True)
class PerUserComparison:
    """Per-user effect of switching policy A → policy B (Fig. 4b).

    Attributes:
        improved_fraction: fraction of users strictly better off under B.
        degraded_fraction: fraction strictly worse off under B.
        unchanged_fraction: fraction within the tie tolerance.
        deltas: per-user throughput change (B - A), Mbps.
    """

    improved_fraction: float
    degraded_fraction: float
    unchanged_fraction: float
    deltas: np.ndarray


def compare_per_user(baseline: Sequence[float],
                     candidate: Sequence[float],
                     tolerance: float = 1e-6) -> PerUserComparison:
    """Classify each user as improved / degraded / unchanged.

    Args:
        baseline: per-user throughputs under the baseline policy.
        candidate: per-user throughputs under the candidate policy
            (same user order).
        tolerance: absolute Mbps band treated as a tie.
    """
    a = np.asarray(list(baseline), dtype=float)
    b = np.asarray(list(candidate), dtype=float)
    if a.shape != b.shape:
        raise ValueError("both policies must cover the same users")
    if a.size == 0:
        raise ValueError("at least one user is required")
    deltas = b - a
    improved = float(np.mean(deltas > tolerance))
    degraded = float(np.mean(deltas < -tolerance))
    return PerUserComparison(improved_fraction=improved,
                             degraded_fraction=degraded,
                             unchanged_fraction=1.0 - improved - degraded,
                             deltas=deltas)


def bottom_k_users(throughputs: Sequence[float], k: int) -> np.ndarray:
    """Indices of the ``k`` users with the lowest throughput (Fig. 5a)."""
    x = np.asarray(list(throughputs), dtype=float)
    if not 0 < k <= x.size:
        raise ValueError("k must be in [1, n_users]")
    return np.argsort(x, kind="stable")[:k]


def top_k_users(throughputs: Sequence[float], k: int) -> np.ndarray:
    """Indices of the ``k`` users with the highest throughput (Fig. 5b)."""
    x = np.asarray(list(throughputs), dtype=float)
    if not 0 < k <= x.size:
        raise ValueError("k must be in [1, n_users]")
    return np.argsort(-x, kind="stable")[:k]
