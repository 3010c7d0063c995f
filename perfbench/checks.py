"""Correctness invariants the benchmark checks on every run.

The checks are built from invariants, not from a pinned digest, so a
change that deliberately alters decisions still passes them:

* serve workloads: every applied assignment passes
  :meth:`DecisionGuard.check_assignment`, leaves no user unattached who
  can hear an extender, agrees with the epoch's directives, and scores
  (under :func:`repro.net.engine.evaluate`) exactly the aggregate the
  service reported, all under the epoch's observed scenario, which is
  rebuilt here independently from the raw telemetry through a
  :class:`HealthMonitor` of its own;
* the sweep: every trial completes, and each policy's assignment passes
  the guard and scores the aggregate the runner reported.

A building or trial failing any invariant counts as a failed operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.guard import DecisionGuard
from repro.core.health import HealthMonitor
from repro.core.problem import MIN_USABLE_RATE, UNASSIGNED, Scenario
from repro.fleet.service import BuildingEpoch, EpochReport
from repro.fleet.spec import FleetSpec
from repro.net.engine import evaluate
from repro.sim.runner import TrialResult

#: Raw telemetry lookup: ``(building, epoch) -> (wifi, plc)`` or None.
RawReport = Callable[[int, int], Optional[Tuple[np.ndarray, np.ndarray]]]

_REL_TOL = 1e-9


@dataclass
class CheckResult:
    """What a correctness pass found."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)


def _score_problems(scenario: Scenario, assignment: np.ndarray,
                    plc_mode: str, reported: float) -> List[str]:
    """``evaluate`` the assignment; it must score what was reported."""
    try:
        aggregate = evaluate(scenario, assignment,
                             plc_mode=plc_mode).aggregate
    except ValueError:  # evaluate validates the assignment itself
        return ["unscorable-assignment"]
    if not math.isclose(aggregate, reported, rel_tol=_REL_TOL,
                        abs_tol=_REL_TOL):
        return ["aggregate-mismatch"]
    return []


def assignment_problems(scenario: Scenario, assignment: np.ndarray,
                        guard: DecisionGuard) -> List[str]:
    """Guard violations plus users left unattached while reachable."""
    found = [v.code for v in guard.check_assignment(
        scenario, assignment, source="perfbench",
        require_complete=False).violations]
    if scenario.capacities is None:
        hears = np.any(scenario.wifi_rates > MIN_USABLE_RATE, axis=1)
        if np.any(hears & (assignment == UNASSIGNED)):
            found.append("reachable-user-unassigned")
    return found


class ServeChecker:
    """Replays a service's epoch reports against independent state.

    Feed reports in epoch order with :meth:`check_epoch`; the checker
    tracks each building's applied assignment from the directives and
    its own health monitor from the raw telemetry, exactly as the
    service documents its observation step.
    """

    def __init__(self, spec: FleetSpec, raw: RawReport) -> None:
        self.spec = spec
        self.raw = raw
        self.guard = DecisionGuard()
        self.monitors = [
            HealthMonitor(b.n_extenders,
                          flap_band=spec.health.flap_band,
                          flap_strikes=spec.health.flap_strikes,
                          probation_epochs=spec.health.probation_epochs)
            for b in spec.buildings]
        self.assignments = [np.full(b.n_users, UNASSIGNED, dtype=int)
                            for b in spec.buildings]
        self.result = CheckResult()
        #: Observed scenario per building of the latest checked epoch.
        self.scenarios: List[Optional[Scenario]] = [None] * len(
            spec.buildings)

    def _observe(self, b: int, epoch: int) -> Optional[Scenario]:
        report = self.raw(b, epoch)
        if report is None:
            return None
        wifi, plc = report
        carrying = np.zeros(self.spec.buildings[b].n_extenders,
                            dtype=bool)
        attached = self.assignments[b]
        carrying[attached[attached != UNASSIGNED]] = True
        monitor = self.monitors[b]
        monitor.observe(plc, carrying_traffic=carrying)
        plc_eff = monitor.effective_rates(plc)
        quarantined = monitor.quarantined_extenders()
        if quarantined:
            mask = np.asarray(quarantined, dtype=int)
            wifi = wifi.copy()
            wifi[:, mask] = 0.0
            plc_eff = plc_eff.copy()
            plc_eff[mask] = 0.0
        return Scenario(wifi_rates=wifi, plc_rates=plc_eff)

    def building_problems(self, b: int, scenario: Scenario,
                          entry: BuildingEpoch) -> Tuple[List[str],
                                                         np.ndarray]:
        """Invariant violations of one building's epoch entry."""
        problems: List[str] = []
        new = self.assignments[b].copy()
        for d in entry.directives:
            if int(new[d.user]) != d.old_extender:
                problems.append("directive-old-mismatch")
            new[d.user] = d.new_extender
        expected_q = self.monitors[b].quarantined_extenders()
        if tuple(entry.quarantined) != expected_q:
            problems.append("quarantine-mismatch")
        problems += assignment_problems(scenario, new, self.guard)
        problems += _score_problems(scenario, new, self.spec.plc_mode,
                                    entry.aggregate_mbps)
        return problems, new

    def check_epoch(self, report: EpochReport) -> None:
        res = self.result
        res.attempted += report.n_shards
        if report.n_shard_failures:
            res.fail(report.n_shard_failures,
                     f"epoch {report.epoch}: {report.n_shard_failures} "
                     "shard solves ended as WorkFailure")
        if report.n_rejected_records:
            res.problems.append(
                f"epoch {report.epoch}: {report.n_rejected_records} "
                "telemetry records rejected on a clean stream")
        if len(report.buildings) != len(self.spec.buildings):
            res.fail(max(report.n_shards, 1),
                     f"epoch {report.epoch}: report covers "
                     f"{len(report.buildings)} buildings")
            return
        for b, entry in enumerate(report.buildings):
            scenario = self._observe(b, report.epoch)
            if scenario is None:
                res.fail(max(entry.n_segments, 1),
                         f"epoch {report.epoch} building {entry.building}:"
                         " no telemetry for a clean input")
                continue
            problems, new = self.building_problems(b, scenario, entry)
            if problems:
                res.fail(max(entry.n_segments - entry.n_shard_failures,
                             1),
                         f"epoch {report.epoch} building "
                         f"{entry.building}: {sorted(set(problems))}")
            self.assignments[b] = new
            self.scenarios[b] = scenario


def check_serve(spec: FleetSpec, raw: RawReport,
                reports: Sequence[EpochReport]) -> CheckResult:
    """Check a whole run of epoch reports (see :class:`ServeChecker`)."""
    checker = ServeChecker(spec, raw)
    for report in reports:
        checker.check_epoch(report)
    return checker.result


def trial_problems(trial: TrialResult, plc_mode: str,
                   guard: DecisionGuard) -> List[str]:
    """Invariant violations of one completed sweep trial."""
    problems: List[str] = []
    for policy, outcome in sorted(trial.outcomes.items()):
        assignment = np.asarray(outcome.assignment, dtype=int)
        found = assignment_problems(trial.scenario, assignment, guard)
        found += _score_problems(trial.scenario, assignment, plc_mode,
                                 outcome.aggregate_throughput)
        problems += [f"{policy}:{code}" for code in found]
    return problems


def check_trials(trials: Sequence[object], n_expected: int,
                 plc_mode: str) -> CheckResult:
    """Check one ``run_trials`` result (failures and invariants)."""
    res = CheckResult(attempted=n_expected)
    guard = DecisionGuard()
    if len(trials) != n_expected:
        res.fail(n_expected - len(trials),
                 f"{n_expected - len(trials)} trials never completed")
    for index, trial in enumerate(trials):
        if not isinstance(trial, TrialResult):
            res.fail(1, f"trial {index} failed: {trial!r}")
            continue
        problems = trial_problems(trial, plc_mode, guard)
        if problems:
            res.fail(1, f"trial {index}: {problems}")
    return res


def merge(results: Sequence[CheckResult]) -> CheckResult:
    out = CheckResult()
    for res in results:
        out.attempted += res.attempted
        out.failed += res.failed
        out.problems += res.problems[:max(0, 20 - len(out.problems))]
    return out


def unreachable_swap(scenario: Scenario,
                     assignment: np.ndarray) -> Optional[Tuple[int, int]]:
    """A ``(user, extender)`` pair the user cannot hear, if any.

    Used by the self-test to corrupt one result deliberately.
    """
    for user in range(scenario.n_users):
        deaf = np.flatnonzero(scenario.wifi_rates[user] <= MIN_USABLE_RATE)
        if deaf.size and assignment[user] != UNASSIGNED:
            return user, int(deaf[0])
    return None
