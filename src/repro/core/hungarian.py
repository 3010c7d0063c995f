"""From-scratch rectangular assignment solver (Hungarian method family).

Phase I of WOLT (Theorem 2) maps the relaxed Problem 1 onto a linear
assignment problem: pick exactly one user per extender so that the sum of
task utilities ``u_ij = min(c_j/|A|, r_ij)`` is maximized.  The paper
solves it with the Hungarian algorithm in ``O(|A|^3)``.

This module implements the shortest-augmenting-path variant of the
Hungarian method (Jonker-Volgenant style) for *rectangular* cost matrices,
without relying on :func:`scipy.optimize.linear_sum_assignment` — although
the test-suite cross-checks the two on random instances.

The solver minimizes cost; :func:`solve_assignment` exposes both
orientations through a ``maximize`` flag and understands forbidden pairs
(``+inf`` cost / ``-inf`` utility).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["solve_assignment", "max_cardinality_assignment",
           "InfeasibleAssignmentError"]


class InfeasibleAssignmentError(ValueError):
    """Raised when no complete matching avoids forbidden pairs."""


def solve_assignment(weights: np.ndarray,
                     maximize: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the rectangular linear assignment problem.

    Every column (task) of the smaller dimension is matched to a distinct
    row (agent); with an ``n x m`` matrix, ``min(n, m)`` pairs are
    produced.

    Args:
        weights: 2-D matrix of utilities (``maximize=True``) or costs
            (``maximize=False``).  ``-inf`` utility / ``+inf`` cost marks a
            forbidden pair; NaN is rejected.
        maximize: orientation of the objective.

    Returns:
        ``(rows, cols)`` index arrays of the matched pairs, sorted by
        column when the matrix is tall (more rows than columns) and by row
        otherwise — mirroring scipy's convention of sorting by the first
        axis of the *untransposed* problem.

    Raises:
        InfeasibleAssignmentError: if no complete matching exists.
        ValueError: on NaN entries or empty input.
    """
    rows, cols, forbidden = _solve_big_m(weights, maximize)
    if np.any(forbidden):
        raise InfeasibleAssignmentError(
            "no complete matching avoids the forbidden pairs")
    return rows, cols


def max_cardinality_assignment(weights: np.ndarray, maximize: bool = True
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Largest matching that avoids forbidden pairs, best total among them.

    Where :func:`solve_assignment` raises because no complete matching
    avoids the forbidden pairs (a Hall-condition violation), this
    returns a maximum-cardinality matching over the allowed pairs, with
    the best objective among all matchings of that size.  When a
    complete matching exists the result equals
    :func:`solve_assignment`'s.  It is the same big-M solve: a
    forbidden pair costs more than any difference in allowed totals,
    so the optimum first minimizes the number of forbidden pairs used;
    those pairs are then dropped.  The solver breaks ties
    deterministically (lowest index first).

    Returns:
        ``(rows, cols)`` of the kept pairs, ordered as in
        :func:`solve_assignment`.

    Raises:
        InfeasibleAssignmentError: if every pair is forbidden.
        ValueError: on NaN entries or empty input.
    """
    rows, cols, forbidden = _solve_big_m(weights, maximize)
    return rows[~forbidden], cols[~forbidden]


def _solve_big_m(weights: np.ndarray, maximize: bool
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complete matching with forbidden pairs priced at a big-M cost.

    Returns ``(rows, cols, forbidden)``: the matched pairs, ordered as
    documented in :func:`solve_assignment`, and a mask of the pairs
    that landed on forbidden entries.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError("weights must be a non-empty 2-D matrix")
    if np.any(np.isnan(w)):
        raise ValueError("weights must not contain NaN")

    cost = -w if maximize else w.copy()
    forbidden = np.isinf(cost) & (cost > 0)
    if maximize and np.any(np.isinf(cost) & (cost < 0)):
        raise ValueError("utilities must not be +inf")
    if not maximize and np.any(np.isinf(cost) & (cost < 0)):
        raise ValueError("costs must not be -inf")

    finite = cost[~forbidden]
    if finite.size == 0:
        raise InfeasibleAssignmentError("all pairs are forbidden")
    # Replace forbidden entries by a cost so large they are never chosen
    # unless unavoidable.
    span = float(finite.max() - finite.min()) + 1.0
    big = float(finite.max()) + span * (max(cost.shape) + 1)
    cost = np.where(forbidden, big, cost)

    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
        forbidden_t = forbidden.T
    else:
        forbidden_t = forbidden

    row4col, col4row = _shortest_path_assignment(cost)

    rows = np.arange(cost.shape[0])
    cols = col4row
    hit = forbidden_t[rows, cols]
    if transposed:
        order = np.argsort(cols)
        return cols[order], rows[order], hit[order]
    return rows, cols, hit


def _shortest_path_assignment(cost: np.ndarray
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Jonker-Volgenant successive shortest augmenting paths.

    Expects ``n_rows <= n_cols``; matches every row.  Returns
    ``(row4col, col4row)`` where ``row4col[j]`` is the row matched to
    column ``j`` (or -1) and ``col4row[i]`` the column matched to row
    ``i``.
    """
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)  # row duals
    v = np.zeros(n_cols)  # column duals
    col4row = np.full(n_rows, -1, dtype=int)
    row4col = np.full(n_cols, -1, dtype=int)

    for cur_row in range(n_rows):
        shortest = np.full(n_cols, np.inf)
        pred_row = np.full(n_cols, -1, dtype=int)
        scanned_rows = np.zeros(n_rows, dtype=bool)
        scanned_cols = np.zeros(n_cols, dtype=bool)
        lowest = 0.0
        sink = -1
        i = cur_row
        while sink == -1:
            scanned_rows[i] = True
            slack = lowest + cost[i] - u[i] - v
            improve = ~scanned_cols & (slack < shortest)
            shortest[improve] = slack[improve]
            pred_row[improve] = i
            open_cols = np.flatnonzero(~scanned_cols)
            j = open_cols[np.argmin(shortest[open_cols])]
            lowest = shortest[j]
            if np.isinf(lowest):  # pragma: no cover - guarded by `big`
                raise InfeasibleAssignmentError("matching cannot be extended")
            scanned_cols[j] = True
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
        # Dual updates keep reduced costs non-negative.
        u[cur_row] += lowest
        others = scanned_rows.copy()
        others[cur_row] = False
        for i2 in np.flatnonzero(others):
            u[i2] += lowest - shortest[col4row[i2]]
        v[scanned_cols] -= lowest - shortest[scanned_cols]
        # Augment along the alternating path back to cur_row.
        j = sink
        while True:
            i2 = pred_row[j]
            row4col[j] = i2
            col4row[i2], j = j, col4row[i2]
            if i2 == cur_row:
                break
    return row4col, col4row
