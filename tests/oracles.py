"""Readable reference oracles for the production search kernels.

Production keeps one path per solver: Phase II inserts users over an
incrementally maintained gains matrix and searches relocations and
swaps on Python-float cell state, the greedy baselines score every
arrival's candidates with one :class:`~repro.net.engine.ArrivalScorer`
pass, and :class:`~repro.core.dynamic.IncrementalWolt` scores moves
with a :class:`~repro.net.engine.DeltaEvaluator`.  The functions here
make the same sequence of decisions the plain way, one candidate at a
time or one tiled :func:`~repro.net.engine.evaluate_batch` per
arrival, on state they do not share with production, so the
differential walls (``test_delta_eval.py``, ``test_greedy_wall.py``,
``test_batching_acceptance.py``, ``test_dynamic.py``) can assert that
production matches them bit for bit.

The module also holds the closed-form sharing-law helpers only tests
use: the single-cell forms of Eq. (1) and the plain time-fair PLC law
of Eq. (2).  Production evaluates both through the whole-assignment
kernels in :mod:`repro.wifi.sharing` and :mod:`repro.plc.sharing`.

Last, :func:`decode_record_reference` validates a telemetry wire
record one cell at a time, the reference for the array pass in
:meth:`repro.fleet.ingest.TelemetryRecord.decode`.
"""

from __future__ import annotations

from typing import (Any, Callable, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core.dynamic import IncrementalWolt, ReconfigureOutcome
from repro.core.guard import DecisionGuard
from repro.core.phase1 import phase1_utilities, solve_phase1
from repro.core.phase2 import Phase2Result, wifi_objective
from repro.core.problem import MIN_USABLE_RATE, UNASSIGNED, Scenario
from repro.core.wolt import WoltResult, solve_wolt
from repro.fleet.ingest import (BAD_FIELD, STREAM_VERSION,
                                UNKNOWN_BUILDING, UNKNOWN_VERSION,
                                TelemetryRecord, _Reject, _verify_line)
from repro.net.engine import (ThroughputReport, _record, evaluate,
                              evaluate_batch)

# ----------------------------------------------------------------------
# Sharing laws in closed form


def cell_throughput(rates: Iterable[float]) -> float:
    """Aggregate WiFi throughput of one extender cell, Eq. (1).

    ``|N_j| / sum(1 / r_ij)`` over the attached users' PHY rates; an
    empty cell yields zero.  Raises ``ValueError`` on a non-positive
    rate (a user cannot be attached over a dead link).
    """
    rate_list = [float(r) for r in rates]
    if not rate_list:
        return 0.0
    if any(r <= 0 for r in rate_list):
        raise ValueError("attached users must have positive WiFi rates")
    return len(rate_list) / sum(1.0 / r for r in rate_list)


def per_user_throughput(rates: Iterable[float]) -> float:
    """Common per-user throughput inside one throughput-fair cell."""
    rate_list = [float(r) for r in rates]
    if not rate_list:
        return 0.0
    return cell_throughput(rate_list) / len(rate_list)


def anomaly_ratio(fast_rate: float, slow_rate: float) -> float:
    """Share of its isolation rate a fast user keeps next to one slow peer.

    Two users sharing a cell each get ``1 / (1/fast + 1/slow)``; alone
    the fast user would get ``fast``.  The ratio (``<= 1``) is the
    802.11 performance anomaly of the Fig. 2a experiment.
    """
    if fast_rate <= 0 or slow_rate <= 0:
        raise ValueError("rates must be positive")
    return (1.0 / (1.0 / fast_rate + 1.0 / slow_rate)) / fast_rate


def time_fair_throughputs(plc_rates: Sequence[float],
                          active: Optional[Sequence[bool]] = None
                          ) -> np.ndarray:
    """Plain time-fair PLC throughputs, Eq. (2): ``c_j / A`` if active.

    ``A`` is the number of active extenders (all of them when ``active``
    is omitted); inactive extenders get zero.
    """
    rates = np.asarray(plc_rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("PLC rates must be non-negative")
    mask = (np.ones(rates.shape, dtype=bool) if active is None
            else np.asarray(active, dtype=bool))
    if mask.shape != rates.shape:
        raise ValueError("active mask must match plc_rates shape")
    out = np.zeros_like(rates)
    if mask.any():
        out[mask] = rates[mask] / int(mask.sum())
    return out


# ----------------------------------------------------------------------
# Phase II and WOLT


class _CellState:
    """Incremental per-extender WiFi state on numpy scalars.

    The numpy-array form of :class:`repro.core.phase2._CellState`,
    kept so the Phase-II wall compares production against state
    updates it does not share.
    """

    def __init__(self, scenario: Scenario, assignment: np.ndarray) -> None:
        self.scenario = scenario
        n_ext = scenario.n_extenders
        self.counts = np.zeros(n_ext, dtype=int)
        self.inv_rate_sums = np.zeros(n_ext, dtype=float)
        for i in np.flatnonzero(assignment != UNASSIGNED):
            j = assignment[i]
            self.counts[j] += 1
            self.inv_rate_sums[j] += 1.0 / scenario.wifi_rates[i, j]

    def throughput(self, j: int) -> float:
        if self.counts[j] == 0:
            return 0.0
        return self.counts[j] / self.inv_rate_sums[j]

    def total(self) -> float:
        busy = self.counts > 0
        return float((self.counts[busy] / self.inv_rate_sums[busy]).sum())

    def add(self, user: int, j: int) -> None:
        self.counts[j] += 1
        self.inv_rate_sums[j] += 1.0 / self.scenario.wifi_rates[user, j]

    def remove(self, user: int, j: int) -> None:
        self.counts[j] -= 1
        self.inv_rate_sums[j] -= 1.0 / self.scenario.wifi_rates[user, j]
        if self.counts[j] == 0:
            self.inv_rate_sums[j] = 0.0

    def room(self, j: int) -> bool:
        return self.counts[j] < self.scenario.capacity_of(j)


def _try_swaps(scenario: Scenario, state: _CellState,
               assignment: np.ndarray, movable: np.ndarray) -> bool:
    """One first-improvement pass of pairwise extender swaps.

    A rejected swap is undone by the reverse updates in the same order
    as :func:`repro.core.phase2._try_swaps`.  Returns True if any swap
    improved the objective.
    """
    improved = False
    for a_pos in range(movable.size):
        a = int(movable[a_pos])
        for b_pos in range(a_pos + 1, movable.size):
            b = int(movable[b_pos])
            ja, jb = int(assignment[a]), int(assignment[b])
            if ja == jb:
                continue
            ra_jb = scenario.wifi_rates[a, jb]
            rb_ja = scenario.wifi_rates[b, ja]
            if ra_jb <= MIN_USABLE_RATE or rb_ja <= MIN_USABLE_RATE:
                continue
            before = state.throughput(ja) + state.throughput(jb)
            state.remove(a, ja)
            state.remove(b, jb)
            state.add(a, jb)
            state.add(b, ja)
            after = state.throughput(ja) + state.throughput(jb)
            if after > before + 1e-12:
                assignment[a], assignment[b] = jb, ja
                improved = True
            else:
                state.remove(a, jb)
                state.remove(b, ja)
                state.add(a, ja)
                state.add(b, jb)
    return improved


def _gain_of_adding(state: _CellState, user: int, j: int) -> float:
    """Change in ``sum_j T_WiFi_j`` if ``user`` joins extender ``j``.

    Counted as one scalar engine call, so ``count_engine_calls`` sees
    what scoring candidates one at a time costs.
    """
    _record(scalar=1)
    r = state.scenario.wifi_rates[user, j]
    if r <= MIN_USABLE_RATE:
        return -np.inf
    new = (state.counts[j] + 1) / (state.inv_rate_sums[j] + 1.0 / r)
    return new - state.throughput(j)


def phase2_reference(scenario: Scenario, phase1_assignment: Sequence[int],
                     guard: Optional[DecisionGuard] = None
                     ) -> Phase2Result:
    """Phase II scoring every (user, extender) candidate one at a time.

    Greedy insertion places the first strictly best pair in a scan over
    pending users then reachable extenders; each local-search round
    relocates every movable user to its first strictly better extender
    (by more than ``1e-12``) and then tries pairwise swaps.  With a
    ``guard``, anchors are repaired first, unplaceable users are left
    UNASSIGNED and the result is validated, as in
    :func:`repro.core.phase2.solve_phase2`.
    """
    assignment = np.array(phase1_assignment, dtype=int)
    if guard is not None:
        assignment, _ = guard.repair_assignment(
            scenario, assignment, source="phase2-anchors",
            require_complete=False)
    anchors = assignment.copy()
    state = _CellState(scenario, assignment)
    remaining = list(np.flatnonzero(assignment == UNASSIGNED))

    while remaining:
        best: Optional[Tuple[float, int, int]] = None
        for user in remaining:
            for j in scenario.reachable(user):
                if not state.room(j):
                    continue
                gain = _gain_of_adding(state, user, int(j))
                if best is None or gain > best[0]:
                    best = (gain, user, int(j))
        if best is None:
            if guard is not None:
                break
            raise ValueError(
                f"users {remaining} cannot be attached to any extender")
        _, user, j = best
        state.add(user, j)
        assignment[user] = j
        remaining.remove(user)

    movable = np.flatnonzero((anchors == UNASSIGNED)
                             & (assignment != UNASSIGNED))
    rounds = 0
    improved = True
    while improved and rounds < 100:  # solve_phase2's default max_rounds
        improved = False
        rounds += 1
        for user in movable:
            user = int(user)
            cur = int(assignment[user])
            state.remove(user, cur)
            best_j, best_gain = cur, _gain_of_adding(state, user, cur)
            for j in scenario.reachable(user):
                j = int(j)
                if j == cur or not state.room(j):
                    continue
                gain = _gain_of_adding(state, user, j)
                if gain > best_gain + 1e-12:
                    best_j, best_gain = j, gain
            state.add(user, best_j)
            assignment[user] = best_j
            improved |= best_j != cur
        if _try_swaps(scenario, state, assignment, movable):
            improved = True

    objective = state.total()
    if guard is not None:
        assignment, report = guard.repair_assignment(
            scenario, assignment, source="phase2", require_complete=True)
        if report.repaired_users:
            objective = wifi_objective(scenario, assignment)
    return Phase2Result(assignment=assignment, objective=objective,
                        iterations=rounds, was_integral=True)


def wolt_reference(scenario: Scenario) -> WoltResult:
    """Full WOLT with :func:`phase2_reference` as its Phase II."""
    phase1 = solve_phase1(scenario, phase1_utilities(scenario))
    phase2 = phase2_reference(scenario, phase1.assignment)
    report = evaluate(scenario, phase2.assignment, require_complete=True)
    return WoltResult(assignment=phase2.assignment, phase1=phase1,
                      phase2=phase2, report=report)


# ----------------------------------------------------------------------
# Greedy baselines


def _greedy_reference(scenario: Scenario,
                      arrival_order: Optional[Sequence[int]],
                      plc_mode: str, guard: Optional[DecisionGuard],
                      source: str,
                      score: Callable[[ThroughputReport, int], float]
                      ) -> np.ndarray:
    """Online greedy with one scalar ``evaluate`` per candidate extender.

    Each arrival takes the reachable extender with room that maximizes
    ``(score, WiFi rate)``; the first strictly greater key wins.
    """
    order = range(scenario.n_users) if arrival_order is None \
        else arrival_order
    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    counts = np.zeros(scenario.n_extenders, dtype=int)
    for user in order:
        user = int(user)
        best_j, best_key = UNASSIGNED, None
        for j in scenario.reachable(user):
            j = int(j)
            if counts[j] >= scenario.capacity_of(j):
                continue
            trial = assignment.copy()
            trial[user] = j
            report = evaluate(scenario, trial, plc_mode=plc_mode)
            key = (score(report, user), scenario.wifi_rates[user, j])
            if best_key is None or key > best_key:
                best_key, best_j = key, j
        if best_j == UNASSIGNED:
            if guard is None:
                raise ValueError(f"user {user} cannot be attached anywhere")
            continue
        assignment[user] = best_j
        counts[best_j] += 1
    if guard is not None:
        assignment, _ = guard.repair_assignment(scenario, assignment,
                                                source=source)
    return assignment


def greedy_reference(scenario: Scenario,
                     arrival_order: Optional[Sequence[int]] = None,
                     plc_mode: str = "redistribute",
                     guard: Optional[DecisionGuard] = None) -> np.ndarray:
    """§V-B Greedy: each arrival maximizes the network aggregate."""
    return _greedy_reference(scenario, arrival_order, plc_mode, guard,
                             "greedy", lambda report, _: report.aggregate)


def selfish_greedy_reference(scenario: Scenario,
                             arrival_order: Optional[Sequence[int]] = None,
                             plc_mode: str = "redistribute",
                             guard: Optional[DecisionGuard] = None
                             ) -> np.ndarray:
    """Selfish greedy: each arrival maximizes its own throughput."""
    return _greedy_reference(
        scenario, arrival_order, plc_mode, guard, "selfish",
        lambda report, user: report.user_throughputs[user])


GreedyTrace = List[Tuple[int, List[int], np.ndarray, int]]


def tiled_arrival_scores(scenario: Scenario, assignment: Sequence[int],
                         user: int, plc_mode: str = "redistribute",
                         selfish: bool = False
                         ) -> Tuple[List[int], Optional[np.ndarray]]:
    """One arrival's candidates and scores from a tiled ``evaluate_batch``.

    The assignment is tiled once per reachable extender with room and
    the whole batch is evaluated; the score is each row's aggregate, or
    with ``selfish`` the arrival's own throughput.  Room counts the
    arrival's current cell, if any.  Returns ``([], None)`` when no
    extender qualifies.
    """
    assign = np.array(assignment, dtype=int)
    counts = np.bincount(assign[assign != UNASSIGNED],
                         minlength=scenario.n_extenders)
    candidates = [int(j) for j in scenario.reachable(user)
                  if counts[j] < scenario.capacity_of(int(j))]
    if not candidates:
        return [], None
    batch = np.tile(assign, (len(candidates), 1))
    batch[np.arange(len(candidates)), user] = candidates
    report = evaluate_batch(scenario, batch, plc_mode=plc_mode)
    if selfish:
        return candidates, report.user_throughputs[:, user]
    return candidates, report.aggregates


def _stronger_tie_break(scenario: Scenario, user: int,
                        candidates: List[int], scores: np.ndarray) -> int:
    """Highest ``(score, WiFi rate)``; the first strictly greater wins."""
    best_k = 0
    for k in range(1, len(candidates)):
        if ((scores[k], scenario.wifi_rates[user, candidates[k]])
                > (scores[best_k],
                   scenario.wifi_rates[user, candidates[best_k]])):
            best_k = k
    return candidates[best_k]


def _greedy_batch_reference(scenario: Scenario,
                            arrival_order: Optional[Sequence[int]],
                            plc_mode: str, guard: Optional[DecisionGuard],
                            selfish: bool,
                            trace: Optional[GreedyTrace]) -> np.ndarray:
    order = range(scenario.n_users) if arrival_order is None \
        else arrival_order
    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    for user in order:
        user = int(user)
        candidates, scores = tiled_arrival_scores(
            scenario, assignment, user, plc_mode, selfish)
        if scores is None:
            if guard is None:
                raise ValueError(f"user {user} cannot be attached anywhere")
            continue
        choice = _stronger_tie_break(scenario, user, candidates, scores)
        if trace is not None:
            trace.append((user, candidates, scores, choice))
        assignment[user] = choice
    if guard is not None:
        assignment, _ = guard.repair_assignment(
            scenario, assignment, source="selfish" if selfish else "greedy")
    return assignment


def greedy_batch_reference(scenario: Scenario,
                           arrival_order: Optional[Sequence[int]] = None,
                           plc_mode: str = "redistribute",
                           guard: Optional[DecisionGuard] = None,
                           trace: Optional[GreedyTrace] = None
                           ) -> np.ndarray:
    """§V-B Greedy scoring every arrival with a tiled ``evaluate_batch``.

    With ``trace``, appends ``(user, candidates, scores, choice)`` per
    arrival, so a test can compare each arrival's scores bit for bit.
    """
    return _greedy_batch_reference(scenario, arrival_order, plc_mode,
                                   guard, False, trace)


def selfish_greedy_batch_reference(
        scenario: Scenario, arrival_order: Optional[Sequence[int]] = None,
        plc_mode: str = "redistribute",
        guard: Optional[DecisionGuard] = None,
        trace: Optional[GreedyTrace] = None) -> np.ndarray:
    """Selfish greedy scoring every arrival with a tiled ``evaluate_batch``."""
    return _greedy_batch_reference(scenario, arrival_order, plc_mode,
                                   guard, True, trace)


# ----------------------------------------------------------------------
# Incremental WOLT


def reconfigure_reference(ctl: IncrementalWolt) -> ReconfigureOutcome:
    """``ctl.reconfigure()`` scoring each round in one tiled batch.

    Every round tiles the working assignment once per pending move,
    scores the whole batch with :func:`~repro.net.engine.evaluate_batch`
    and applies the best move while it clears the hysteresis bar.
    Mutates ``ctl`` exactly as :meth:`IncrementalWolt.reconfigure` does.
    """
    scenario, ids = ctl._scenario()
    if not ids:
        return ReconfigureOutcome(moves=(), aggregate_before=0.0,
                                  aggregate_after=0.0, wolt_aggregate=0.0)
    current = np.array([ctl.assignment[uid] for uid in ids])
    before = evaluate(scenario, current, plc_mode=ctl.plc_mode,
                      require_complete=True).aggregate
    target = solve_wolt(scenario, plc_mode=ctl.plc_mode,
                        warm_start=current if ctl.warm_start else None,
                        guard=ctl.guard)
    pending = {idx for idx in range(len(ids))
               if target.assignment[idx] != current[idx]
               and target.assignment[idx] != UNASSIGNED}
    applied: List[Tuple[int, int, int]] = []
    working = current.copy()
    best = before
    while pending:
        if ctl.max_moves is not None and len(applied) >= ctl.max_moves:
            break
        idxs = sorted(pending)
        batch = np.tile(working, (len(idxs), 1))
        batch[np.arange(len(idxs)), idxs] = target.assignment[idxs]
        aggregates = evaluate_batch(scenario, batch, plc_mode=ctl.plc_mode,
                                    require_complete=True).aggregates
        gain, idx = max((float(agg) - best, idx)
                        for agg, idx in zip(aggregates, idxs))
        if ctl.min_gain_mbps > 0 and gain < ctl.min_gain_mbps:
            break
        applied.append((ids[idx], int(working[idx]),
                        int(target.assignment[idx])))
        working[idx] = target.assignment[idx]
        best = float(aggregates[idxs.index(idx)])
        pending.discard(idx)
    for user_id, _, new_j in applied:
        ctl.assignment[user_id] = new_j
    ctl.total_moves += len(applied)
    after = evaluate(scenario, working, plc_mode=ctl.plc_mode,
                     require_complete=True).aggregate
    return ReconfigureOutcome(moves=tuple(applied), aggregate_before=before,
                              aggregate_after=after,
                              wolt_aggregate=target.aggregate_throughput)


# ----------------------------------------------------------------------
# Telemetry record decoding

_RECORD_KEYS = frozenset({"kind", "v", "crc", "building", "epoch",
                          "wifi", "plc"})


def _finite_cell(value: Any, what: str) -> float:
    # bool is an int subclass: a corrupted `true` must not parse as 1.0.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Reject(BAD_FIELD,
                      f"{what} must be a number, got {value!r}")
    try:
        rate = float(value)
    except OverflowError as exc:
        raise _Reject(BAD_FIELD,
                      f"{what} is an integer too large for a float"
                      ) from exc
    if not np.isfinite(rate):
        raise _Reject(BAD_FIELD, f"{what} is non-finite ({rate!r})")
    if rate < 0:
        raise _Reject(BAD_FIELD, f"{what} is negative ({rate!r})")
    return rate


def decode_record_reference(raw: str,
                            shapes: Mapping[str, Tuple[int, int]]
                            ) -> TelemetryRecord:
    """``TelemetryRecord.decode`` checking and copying one cell at a time.

    Raises the same :class:`~repro.fleet.ingest._Reject` (class, reason,
    epoch) as production for every record; cells are checked in
    row-major order, so the first bad one names the reject.
    """
    entry = _verify_line(raw)
    kind = entry.get("kind")
    if kind != "telemetry":
        raise _Reject(BAD_FIELD, f"unexpected entry kind {kind!r} mid-stream")
    if entry.get("v") != STREAM_VERSION:
        raise _Reject(UNKNOWN_VERSION,
                      f"unknown schema version {entry.get('v')!r} "
                      f"(this reader speaks v{STREAM_VERSION})")
    unknown = sorted(set(entry) - _RECORD_KEYS)
    if unknown:
        raise _Reject(BAD_FIELD, f"unknown keys {unknown}")
    building = entry.get("building")
    if not isinstance(building, str):
        raise _Reject(BAD_FIELD,
                      f"building must be a string, got {building!r}")
    epoch = entry.get("epoch")
    if isinstance(epoch, bool) or not isinstance(epoch, int):
        raise _Reject(BAD_FIELD, f"epoch must be an integer, got {epoch!r}")
    if building not in shapes:
        raise _Reject(UNKNOWN_BUILDING,
                      f"building {building!r} is not in the spec",
                      epoch=epoch)
    n_users, n_extenders = shapes[building]
    wifi_raw = entry.get("wifi")
    if (not isinstance(wifi_raw, list)
            or len(wifi_raw) != n_users
            or any(not isinstance(row, list) or len(row) != n_extenders
                   for row in wifi_raw)):
        raise _Reject(BAD_FIELD,
                      f"wifi must be a {n_users}x{n_extenders} matrix "
                      f"for building {building!r}", epoch=epoch)
    wifi = np.empty((n_users, n_extenders), dtype=float)
    for u, row in enumerate(wifi_raw):
        for e, value in enumerate(row):
            wifi[u, e] = _finite_cell(value, f"wifi[{u}][{e}]")
    plc_raw = entry.get("plc")
    if not isinstance(plc_raw, list) or len(plc_raw) != n_extenders:
        raise _Reject(BAD_FIELD,
                      f"plc must list {n_extenders} capacities for "
                      f"building {building!r}", epoch=epoch)
    plc = np.empty(n_extenders, dtype=float)
    for e, value in enumerate(plc_raw):
        plc[e] = (np.nan if value is None
                  else _finite_cell(value, f"plc[{e}]"))
    return TelemetryRecord(building=building, epoch=epoch, wifi=wifi,
                           plc=plc)
