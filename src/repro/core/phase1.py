"""Phase I of WOLT: the relaxed assignment problem (Theorem 2).

Phase I solves Problem 1 with constraint (7) relaxed (not every user needs
to be connected) and constraint (8) tightened to "at least one user per
extender".  Lemma 2 shows an optimum of this relaxation attaches *exactly
one* user to each extender, and Theorem 2 shows the relaxation is then an
ordinary linear assignment problem with task utilities

    u_ij = min(c_j / |A|, r_ij)

— the end-to-end rate user ``i`` would see alone on extender ``j`` when
all ``|A|`` extenders time-share the PLC backhaul equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .hungarian import max_cardinality_assignment
from .problem import MIN_USABLE_RATE, UNASSIGNED, Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .guard import DecisionGuard

__all__ = ["phase1_utilities", "Phase1Result", "solve_phase1"]


def phase1_utilities(scenario: Scenario) -> np.ndarray:
    """Task-utility matrix ``u_ij = min(c_j/|A|, r_ij)`` (Alg. 1, l. 1-3).

    Unreachable (user, extender) pairs get ``-inf`` so the assignment
    solver never selects them.
    """
    n_ext = scenario.n_extenders
    fair_plc = scenario.plc_rates / max(n_ext, 1)
    utilities = np.minimum(fair_plc[np.newaxis, :], scenario.wifi_rates)
    return np.where(scenario.wifi_rates > MIN_USABLE_RATE, utilities, -np.inf)


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of Phase I.

    Attributes:
        assignment: length-``n_users`` array; the Phase-I users carry their
            extender index, everyone else is :data:`UNASSIGNED`.
        anchored_users: the set ``U1`` — indices of users placed in Phase I.
        utilities: the task-utility matrix used.
        objective: sum of utilities of the selected pairs (the relaxed
            Problem-1 optimum under Lemma 2).
        unmatched_extenders: extenders left without a Phase-I user, which
            only happens when there are fewer users than extenders or when
            reachability makes a perfect extender matching impossible.
    """

    assignment: np.ndarray
    anchored_users: np.ndarray
    utilities: np.ndarray
    objective: float
    unmatched_extenders: np.ndarray


def solve_phase1(scenario: Scenario,
                 utilities: Optional[np.ndarray] = None,
                 guard: "Optional[DecisionGuard]" = None) -> Phase1Result:
    """Solve the Phase-I assignment problem.

    One distinct user is matched to every extender (when user supply and
    reachability allow) so as to maximize total utility, using the
    from-scratch Hungarian solver.

    Args:
        scenario: the network snapshot.
        utilities: optional pre-computed utility matrix (defaults to
            :func:`phase1_utilities`).
        guard: optional :class:`repro.core.guard.DecisionGuard`; the
            returned artifact is validated (and, if needed, repaired)
            against Lemma 2 via
            :meth:`~repro.core.guard.DecisionGuard.repair_phase1`.  On
            a clean artifact this is a no-op returning the same object.

    Returns:
        A :class:`Phase1Result`.
    """
    if utilities is None:
        utilities = phase1_utilities(scenario)
    utilities = np.asarray(utilities, dtype=float)
    if utilities.shape != (scenario.n_users, scenario.n_extenders):
        raise ValueError("utilities must be a (n_users, n_extenders) matrix")

    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    candidate_ext = np.flatnonzero(np.any(np.isfinite(utilities), axis=0))
    if candidate_ext.size == 0 or scenario.n_users == 0:
        result = Phase1Result(assignment=assignment,
                              anchored_users=np.empty(0, dtype=int),
                              utilities=utilities, objective=0.0,
                              unmatched_extenders=np.arange(
                                  scenario.n_extenders))
        if guard is not None:
            result, _ = guard.repair_phase1(scenario, result)
        return result

    # Reachability may prevent matching every candidate extender (a
    # Hall-condition violation); the solve then keeps a largest
    # matchable set of extenders, with the best utility among those.
    rows, cols = max_cardinality_assignment(utilities[:, candidate_ext],
                                            maximize=True)

    users = rows
    extenders = candidate_ext[cols]
    assignment[users] = extenders
    objective = float(utilities[users, extenders].sum())
    matched_mask = np.zeros(scenario.n_extenders, dtype=bool)
    matched_mask[extenders] = True
    result = Phase1Result(assignment=assignment,
                          anchored_users=np.sort(users),
                          utilities=utilities,
                          objective=objective,
                          unmatched_extenders=np.flatnonzero(~matched_mask))
    if guard is not None:
        result, _ = guard.repair_phase1(scenario, result)
    return result

