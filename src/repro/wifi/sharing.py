"""Analytic medium-sharing law for the 802.11 access link.

Section III of the WOLT paper re-confirms the classic 802.11 *performance
anomaly* (Heusse et al., INFOCOM 2003) on commodity PLC-WiFi extenders: DCF
gives every station an equal share of transmission *opportunities*, so all
stations attached to the same extender converge to the same long-term
throughput, and that common throughput is dragged down by the slowest
station.  The aggregate WiFi throughput of extender ``j`` is Eq. (1):

    T_WiFi_j = |N_j| / sum_{i in N_j} (1 / r_ij)

i.e. the harmonic mean of the attached users' PHY rates times the user
count divided by the count — equivalently ``|N_j|`` divided by the total
per-bit airtime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "cell_throughputs",
    "cell_throughputs_batch",
]

_EPS = 1e-12


def cell_throughputs(wifi_rates: np.ndarray,
                     assignment: Sequence[int],
                     n_extenders: int) -> np.ndarray:
    """Vector of per-extender WiFi throughputs for a full assignment.

    Args:
        wifi_rates: ``(n_users, n_extenders)`` matrix of PHY rates ``r_ij``.
        assignment: per-user extender index, ``-1`` for unassigned users.
        n_extenders: number of extenders (columns of ``wifi_rates``).

    Returns:
        Array of length ``n_extenders`` with each cell's aggregate WiFi
        throughput (Mbps); zero for empty cells.
    """
    rates = np.asarray(wifi_rates, dtype=float)
    assign = np.asarray(assignment, dtype=int)
    if assign.shape[0] != rates.shape[0]:
        raise ValueError("assignment length must equal the number of users")
    out = np.zeros(n_extenders, dtype=float)
    for j in range(n_extenders):
        members = (assign == j).nonzero()[0]
        if members.size == 0:
            continue
        member_rates = rates[members, j]
        if (member_rates <= _EPS).any():
            raise ValueError(
                f"user(s) {members[member_rates <= _EPS].tolist()} assigned "
                f"to extender {j} with non-positive WiFi rate")
        out[j] = members.size / float((1.0 / member_rates).sum())
    return out


def cell_throughputs_batch(wifi_rates: np.ndarray,
                           assignments: np.ndarray,
                           n_extenders: int) -> np.ndarray:
    """Per-extender WiFi throughputs for a whole *batch* of assignments.

    Vectorized counterpart of :func:`cell_throughputs`: the per-cell user
    counts and inverse-rate sums of every candidate assignment are
    accumulated in one pass with a flattened ``bincount`` scatter-add, so
    scoring ``B`` candidates costs one numpy sweep instead of ``B`` Python
    loops over extenders.

    Args:
        wifi_rates: ``(n_users, n_extenders)`` matrix of PHY rates ``r_ij``.
        assignments: ``(B, n_users)`` matrix of per-user extender indices;
            any negative entry marks an unassigned user.
        n_extenders: number of extenders (columns of ``wifi_rates``).

    Returns:
        ``(B, n_extenders)`` array of aggregate WiFi throughputs (Mbps);
        zero for empty cells.

    Raises:
        ValueError: on shape mismatch or a user assigned over a dead link.
    """
    rates = np.asarray(wifi_rates, dtype=float)
    assign = np.atleast_2d(np.asarray(assignments, dtype=int))
    if assign.ndim != 2 or assign.shape[1] != rates.shape[0]:
        raise ValueError(
            "assignments must be a (B, n_users) matrix matching wifi_rates")
    n_batch, n_users = assign.shape
    attached = assign >= 0
    if n_batch == 0 or n_users == 0 or not np.any(attached):
        return np.zeros((n_batch, n_extenders), dtype=float)
    safe = np.where(attached, assign, 0)
    chosen = rates[np.arange(n_users)[np.newaxis, :], safe]
    bad = attached & (chosen <= _EPS)
    if np.any(bad):
        rows, users = np.nonzero(bad)
        raise ValueError(
            f"user(s) {sorted(set(users.tolist()))} assigned to an "
            f"extender with non-positive WiFi rate (batch rows "
            f"{sorted(set(rows.tolist()))})")
    flat = (np.arange(n_batch)[:, np.newaxis] * n_extenders + safe)[attached]
    counts = np.bincount(flat, minlength=n_batch * n_extenders)
    inv_sums = np.bincount(flat, weights=1.0 / chosen[attached],
                           minlength=n_batch * n_extenders)
    counts = counts.reshape(n_batch, n_extenders)
    inv_sums = inv_sums.reshape(n_batch, n_extenders)
    out = np.zeros((n_batch, n_extenders), dtype=float)
    busy = counts > 0
    out[busy] = counts[busy] / inv_sums[busy]
    return out
