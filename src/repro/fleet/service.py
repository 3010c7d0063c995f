"""The fleet association service behind ``wolt serve``.

:class:`FleetService` runs the paper's epoch-driven reconfiguration
loop (Fig. 6b) across a whole campus.  Each epoch:

1. **Telemetry** — every building's scan/capacity report comes from
   the service's :class:`~repro.fleet.ingest.TelemetrySource` seam:
   by default :class:`~repro.fleet.ingest.SyntheticTelemetry` drifts
   the ground-truth rates under the spec's
   :class:`~repro.fleet.spec.TelemetryModel` (seeded per
   ``(building, epoch)``, so any epoch is reproducible in isolation);
   ``wolt serve --from`` swaps in
   :class:`~repro.fleet.ingest.RecordedTelemetry`, replaying a
   validated recorded stream — dirty records surface as *missing*
   reports the service degrades around (last-known-good fallback),
   with the per-class reject counts carried into the epoch report
   and journal.  Either way the building's
   :class:`~repro.core.health.HealthMonitor` folds in the PLC
   reports, and quarantined extenders are masked out of the solve
   exactly like dead ones
   (:func:`repro.sim.failures.fail_extenders` semantics).
2. **Sharding** — the effective scenario is split into independent PLC
   segments (:func:`repro.fleet.sharding.split_segments`); all shards
   of all buildings form one work batch.
3. **Dispatch** — shard solves run through the chunked warm-pool
   dispatch layer (:func:`repro.sim.dispatch.dispatch_chunked`, the
   machinery behind ``run_trials``), bit-identical to the serial
   reference for any worker/chunk count.  Every shard runs under the
   service's deadline (``timeout_s``) and worker retry budget: a hung
   solve is *reaped* past its deadline and a crashed one retried up to
   ``retry_budget`` times, after which either becomes an explicit
   :class:`~repro.sim.dispatch.WorkFailure` whose users simply keep
   their previous association — degraded, never stalled.  One
   poisoned building cannot take the campus down.

   A building whose shards keep failing trips its **circuit breaker**
   (``breaker_strikes`` consecutive bad epochs, mirroring
   :class:`~repro.core.health.HealthMonitor` quarantine): while the
   breaker is open the building skips solving entirely and carries its
   association forward cheaply; after ``breaker_probation_epochs`` it
   gets one probe solve — clean closes the breaker, failed re-opens
   it.  Per-building ``staleness`` counts epochs since the last fully
   clean solve, and breaker state is journaled so resume is
   bit-identical.
4. **Directives** — the per-building diff old → new is emitted as
   :class:`Directive` records with per-move expected aggregate deltas,
   scored incrementally by one
   :class:`~repro.net.engine.DeltaEvaluator` per building (bitwise
   equal to a full scalar re-score of each intermediate assignment);
   ``dry_run`` previews them without applying anything.
5. **Journal** — applied epochs append one crash-consistent record to
   the :class:`~repro.sim.checkpoint.TrialStore` journal; resume
   replays telemetry deterministically and restores assignments, so a
   resumed service continues bit-identically.

Dry-run semantics: the world keeps turning (telemetry is ingested,
health state advances, the epoch counter increments) but **nothing is
applied** — associations stay as they were and the journal is not
written.  Repeated ``--dry-run`` epochs therefore preview what each
successive epoch *would* do against the frozen association state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.guard import DecisionGuard
from ..core.health import HealthMonitor
from ..core.problem import MIN_USABLE_RATE, UNASSIGNED, Scenario
from ..core.wolt import solve_wolt
from ..net.engine import DeltaEvaluator
# Compose no longer calls ``evaluate``; the name stays bound here
# because ``perfbench`` traces compose through
# ``repro.fleet.service.evaluate`` (its span now reads zero calls).
from ..net.engine import evaluate  # noqa: F401
from ..sim.checkpoint import TrialStore, fingerprint
from ..sim.dispatch import (TIMEOUT_ERROR_TYPE, InterruptState,
                            WorkFailure, WorkSpec, dispatch_chunked,
                            timeout_failure)
from ..sim.faults import InjectedCrash
from .chaos import FleetFaultModel, ShardFaultPlan
from .ingest import StreamExhausted, SyntheticTelemetry, TelemetrySource
from .sharding import Segment, scatter_assignment, split_segments
from .spec import FleetSpec, build_building_scenario

__all__ = ["BuildingEpoch", "Directive", "EpochReport", "FleetService",
           "format_epoch"]


@dataclass(frozen=True)
class Directive:
    """One association change the service wants to apply.

    Attributes:
        building: building name.
        user: building-local user index.
        old_extender: current extender
            (:data:`~repro.core.problem.UNASSIGNED` for a new
            placement).
        new_extender: target extender
            (:data:`~repro.core.problem.UNASSIGNED` detaches the
            user).
        delta_mbps: expected building-aggregate change from applying
            this directive, in the epoch's directive order.
    """

    building: str
    user: int
    old_extender: int
    new_extender: int
    delta_mbps: float


@dataclass(frozen=True)
class BuildingEpoch:
    """One building's slice of an epoch.

    ``delta_mbps`` compares the directives' outcome against keeping
    the previous association, both scored under *this* epoch's
    effective scenario (telemetry moved between epochs, so comparing
    against last epoch's aggregate would conflate drift with
    decisions).

    ``staleness`` counts epochs since the building last completed a
    fully clean solve (0 = this epoch was clean): it grows while
    shards fail or time out and while the circuit breaker holds the
    building in carry-forward, and is the measure of how degraded the
    building's association is.  ``n_shard_timeouts`` is the subset of
    ``n_shard_failures`` reaped past the deadline.
    """

    building: str
    n_segments: int
    n_shard_failures: int
    n_shard_timeouts: int
    quarantined: Tuple[int, ...]
    aggregate_mbps: float
    delta_mbps: float
    directives: Tuple[Directive, ...]
    staleness: int = 0
    breaker_open: bool = False


@dataclass(frozen=True)
class EpochReport:
    """Everything one epoch decided, across the fleet.

    ``n_degraded_buildings`` counts buildings whose association is
    stale this epoch (``staleness > 0``: failed/timed-out shards or an
    open circuit breaker kept some carry-forward in place).

    ``n_rejected_records``/``rejected`` quantify the ingest boundary:
    how many telemetry records feeding this epoch were classified
    dirty (and per reject class, sorted by class name).  Always zero
    for synthetic telemetry and clean recorded streams — which is
    what keeps their journals byte-identical.
    """

    epoch: int
    buildings: Tuple[BuildingEpoch, ...]
    n_shards: int
    n_shard_failures: int
    n_shard_timeouts: int
    n_degraded_buildings: int
    aggregate_mbps: float
    delta_mbps: float
    applied: bool
    n_rejected_records: int = 0
    rejected: Tuple[Tuple[str, int], ...] = ()

    @property
    def directives(self) -> Tuple[Directive, ...]:
        return tuple(d for b in self.buildings for d in b.directives)


@dataclass(frozen=True)
class _ShardWork:
    """One shard solve: a building index plus its segment."""

    building: int
    segment: Segment


@dataclass(frozen=True)
class _ShardConfig:
    """Fork-inherited batch config for shard solves (picklable).

    ``fault_hook`` is the epoch's planned chaos
    (:class:`~repro.sim.faults.CrashSchedule`), called as
    ``hook(shard_index, attempt)`` before each solve attempt.
    """

    plc_mode: str
    retry_budget: int = 0
    fault_hook: Optional[Callable[[int, int], None]] = None


def _solve_shard(config: _ShardConfig, spec: WorkSpec) -> Any:
    """Worker-side shard solve (module-level, picklable).

    Returns the segment-local assignment; an empty segment (every
    serving extender quarantined away) short-circuits without a solve.
    An :class:`~repro.sim.faults.InjectedCrash` is retried up to
    ``config.retry_budget`` times, then surfaces as an explicit
    :class:`~repro.sim.dispatch.WorkFailure` (real exceptions still
    propagate — this is fault-injection plumbing, not a bug shield).
    """
    segment = spec.item.segment
    if segment.scenario.n_users == 0:
        return np.empty(0, dtype=int)
    attempts = max(config.retry_budget, 0) + 1
    error = ""
    for attempt in range(attempts):
        try:
            if config.fault_hook is not None:
                config.fault_hook(spec.index, attempt)
            return solve_wolt(segment.scenario,
                              plc_mode=config.plc_mode).assignment
        except InjectedCrash as exc:
            error = str(exc)
    return WorkFailure(index=spec.index, attempts=attempts,
                       error_type="InjectedCrash", error=error)


def _servable(assignment: np.ndarray, scenario: Scenario) -> np.ndarray:
    """A copy of ``assignment`` with users whose extender is no longer
    usable under ``scenario`` detached."""
    servable = assignment.copy()
    attached = np.flatnonzero(servable != UNASSIGNED)
    if attached.size:
        rates = scenario.wifi_rates[attached, servable[attached]]
        servable[attached[rates <= MIN_USABLE_RATE]] = UNASSIGNED
    return servable


class _BuildingState:
    """Mutable per-building service state (one per spec building)."""

    def __init__(self, spec: FleetSpec, index: int) -> None:
        building = spec.buildings[index]
        self.index = index
        self.name = building.name
        self.circuits = building.circuits
        self.scenario = build_building_scenario(spec, index)
        self.health = HealthMonitor(
            building.n_extenders,
            flap_band=spec.health.flap_band,
            flap_strikes=spec.health.flap_strikes,
            probation_epochs=spec.health.probation_epochs)
        self.guard = DecisionGuard()
        self.assignment = np.full(building.n_users, UNASSIGNED,
                                  dtype=int)
        # The last telemetry actually received — what the service
        # re-decides from when a chaos blackout eats an epoch's report.
        self.last_observed: Optional[
            Tuple[Scenario, Tuple[int, ...]]] = None
        # Degraded-mode bookkeeping (journaled; see _encode_epoch).
        self.staleness = 0
        self.fail_streak = 0
        self.breaker_open = False
        self.breaker_open_epochs = 0


class FleetService:
    """Campus-scale association service (the engine of ``wolt serve``).

    Args:
        spec: the parsed fleet specification.
        workers: worker processes for shard dispatch (``None``/0/1 =
            serial in-process; results are bit-identical either way).
        chunk_size: shards per dispatched chunk (``None`` = auto).
        journal: optional path of a crash-consistent JSONL epoch
            journal (:class:`~repro.sim.checkpoint.TrialStore`).
        resume: recover the journal and replay it so the service
            continues exactly where it stopped (requires ``journal``).
        timeout_s: per-shard solve deadline (seconds); overrides the
            spec's ``health.shard_timeout_s``.  Requires worker
            processes — a hung in-process solve cannot be reaped
            (planned chaos hangs are still honored serially by
            synthesizing the timeout failure parent-side).
        retry_budget: worker retries per shard before an explicit
            failure; overrides the spec's ``health.retry_budget``.
        fault_model: chaos storm to inject
            (:class:`~repro.fleet.chaos.FleetFaultModel`); overrides
            the spec's ``chaos`` block.  A non-trivial model joins the
            journal fingerprint, so a journal written under chaos
            cannot be silently resumed without it.
        source: where telemetry comes from
            (:class:`~repro.fleet.ingest.TelemetrySource`); ``None``
            synthesizes it in-process
            (:class:`~repro.fleet.ingest.SyntheticTelemetry`).  A
            bounded (recorded) source caps how many epochs can run
            and refuses to combine with a non-trivial chaos model —
            recorded telemetry already is the fault surface, and
            synthetic blackouts would silently shadow real records.
    """

    def __init__(self, spec: FleetSpec,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 journal: Optional[str] = None,
                 resume: bool = False,
                 timeout_s: Optional[float] = None,
                 retry_budget: Optional[int] = None,
                 fault_model: Optional[FleetFaultModel] = None,
                 source: Optional[TelemetrySource] = None) -> None:
        if resume and journal is None:
            raise ValueError("resume requires a journal path")
        self.spec = spec
        self.workers = workers
        self.chunk_size = chunk_size
        self.timeout_s = (spec.health.shard_timeout_s
                          if timeout_s is None else timeout_s)
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.retry_budget = (spec.health.retry_budget
                             if retry_budget is None else retry_budget)
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        self.fault_model = (spec.chaos if fault_model is None
                            else fault_model)
        if (self.fault_model is not None
                and self.fault_model.hang_prob > 0
                and workers is not None and workers > 1
                and self.timeout_s is None):
            raise ValueError(
                "a chaos model with hang faults needs timeout_s when "
                "dispatching to worker processes (an un-reaped hang "
                "stalls the epoch — which is what the deadline is for)")
        self.source: TelemetrySource = (SyntheticTelemetry(spec)
                                        if source is None else source)
        if (self.source.end_epoch is not None
                and self.fault_model is not None
                and not self.fault_model.trivial):
            raise ValueError(
                "a recorded telemetry stream cannot run under a chaos "
                "model: the recorded stream already is the fault "
                "surface, and synthetic blackouts would silently "
                "shadow real records")
        self.epoch = 0
        self._buildings = [_BuildingState(spec, i)
                           for i in range(spec.n_buildings)]
        if isinstance(self.source, SyntheticTelemetry):
            # Share the already-built topologies: the source would
            # otherwise rebuild each one (identically) on first use.
            for bstate in self._buildings:
                self.source.prime(bstate.index, bstate.scenario)
        self._store: Optional[TrialStore] = None
        if journal is not None:
            params = spec.params()
            if (self.fault_model is not None
                    and not self.fault_model.trivial):
                params["chaos"] = self.fault_model.params()
            elif "chaos" in params:
                del params["chaos"]
            self._store = TrialStore(journal, fingerprint(params),
                                     params=params, resume=resume)
            if resume and self._store.records:
                self._replay(self._store.records)

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # telemetry

    def _observe(self, state: _BuildingState,
                 epoch: int) -> Tuple[Scenario, Tuple[int, ...]]:
        """Ingest one epoch of telemetry for one building.

        Pulls the building's scan/capacity report from the telemetry
        source, folds the PLC reports into the health monitor, and
        returns the *effective* scenario (last-known-good capacities,
        quarantined extenders masked out like dead ones) plus the
        quarantine set.

        A chaos blackout means the epoch's report was lost in transit:
        the service re-decides from the building's previous report
        (health state untouched — the monitor never saw anything).  A
        blackout on the very first epoch has nothing to fall back to
        and degrades to a normal observation.  Blackouts are drawn
        from their own seed stream, so replay sees the same ones.

        A recorded source returning ``None`` (its record for this
        slot was rejected at the ingest boundary, or never arrived)
        degrades the same way: last-known-good when there is one; on
        the very first epoch there is nothing to fall back to, so the
        service decides from the as-built rates — a pristine,
        drift-free report, the least-wrong stand-in that keeps the
        epoch alive.
        """
        true = state.scenario
        if (self.fault_model is not None
                and state.last_observed is not None
                and self.fault_model.blackout(self.spec.seed,
                                              state.index, epoch)):
            return state.last_observed
        report = self.source.observe(state.index, epoch)
        if report is None:
            if state.last_observed is not None:
                return state.last_observed
            wifi_obs = true.wifi_rates
            plc_obs = true.plc_rates.astype(float, copy=True)
        else:
            wifi_obs, plc_obs = report
        carrying = np.zeros(true.n_extenders, dtype=bool)
        attached = state.assignment[state.assignment != UNASSIGNED]
        carrying[attached] = True
        state.health.observe(plc_obs, carrying_traffic=carrying)
        effective_plc = state.health.effective_rates(plc_obs)
        quarantined = state.health.quarantined_extenders()
        if quarantined:
            mask = np.asarray(quarantined, dtype=int)
            wifi_obs = wifi_obs.copy()
            wifi_obs[:, mask] = 0.0
            effective_plc = effective_plc.copy()
            effective_plc[mask] = 0.0
        result = (Scenario(wifi_rates=wifi_obs,
                           plc_rates=effective_plc), quarantined)
        state.last_observed = result
        return result

    # ------------------------------------------------------------------
    # the epoch

    def run_epoch(self, dry_run: bool = False,
                  state: Optional[InterruptState] = None
                  ) -> Optional[EpochReport]:
        """Run one epoch; ``None`` when interrupted mid-dispatch.

        An interrupted epoch is discarded whole (nothing applied,
        nothing journaled) — epochs are atomic.
        """
        epoch = self.epoch
        end_epoch = self.source.end_epoch
        if end_epoch is not None and epoch >= end_epoch:
            raise StreamExhausted(
                f"recorded telemetry stream ends before epoch {epoch} "
                f"(window ends at {end_epoch}); record a longer "
                "stream or run fewer epochs")
        health = self.spec.health
        observed: List[Tuple[Scenario, Tuple[int, ...]]] = [
            self._observe(b, epoch) for b in self._buildings]
        # Circuit-breaker gate: an open breaker skips the solve and
        # carries the association forward cheaply, except on its
        # probation epoch (one probe solve decides re-admission).
        solving = [
            not b.breaker_open
            or b.breaker_open_epochs >= health.breaker_probation_epochs
            for b in self._buildings]
        segments_of: List[List[Segment]] = []
        for solve, bstate, (scenario, _) in zip(
                solving, self._buildings, observed):
            segments_of.append(
                split_segments(scenario, circuits=bstate.circuits)
                if solve else [])
        specs = tuple(
            WorkSpec(index=i, item=work) for i, work in enumerate(
                _ShardWork(building=b, segment=segment)
                for b, segments in enumerate(segments_of)
                for segment in segments))
        shard_results = self._dispatch(specs, state, epoch)
        if state is not None and state.interrupted:
            # The epoch is discarded whole, so the counter must not
            # advance: journal resume will re-run this same epoch.
            return None
        cursor = 0
        building_reports: List[BuildingEpoch] = []
        for b, bstate in enumerate(self._buildings):
            segments = segments_of[b]
            results = [shard_results[cursor + s]
                       for s in range(len(segments))]
            cursor += len(segments)
            scenario, quarantined = observed[b]
            if solving[b]:
                building_report = self._settle_building(
                    bstate, scenario, quarantined, segments, results,
                    apply=not dry_run)
            else:
                building_report = self._carry_building(
                    bstate, scenario, quarantined, apply=not dry_run)
            building_reports.append(self._update_breaker(
                bstate, building_report, solved=solving[b],
                apply=not dry_run))
        epoch_rejects = self.source.epoch_rejects(epoch)
        report = EpochReport(
            epoch=epoch,
            buildings=tuple(building_reports),
            n_shards=len(specs),
            n_shard_failures=sum(b.n_shard_failures
                                 for b in building_reports),
            n_shard_timeouts=sum(b.n_shard_timeouts
                                 for b in building_reports),
            n_degraded_buildings=sum(
                1 for b in building_reports if b.staleness > 0),
            aggregate_mbps=sum(b.aggregate_mbps
                               for b in building_reports),
            delta_mbps=sum(b.delta_mbps for b in building_reports),
            applied=not dry_run,
            n_rejected_records=sum(epoch_rejects.values()),
            rejected=tuple(sorted(epoch_rejects.items())))
        if not dry_run and self._store is not None:
            self._store.append(epoch, self._encode_epoch(report))
        self.epoch += 1
        return report

    def run(self, epochs: int, dry_run: bool = False,
            state: Optional[InterruptState] = None,
            on_epoch: Optional[Callable[[EpochReport], None]] = None
            ) -> Tuple[List[EpochReport], Optional[str]]:
        """Run ``epochs`` epochs, draining gracefully on interruption.

        Returns ``(reports, interrupted_signal_name)``; on interrupt
        the in-flight epoch is discarded, an ``interrupted`` event is
        journaled, and the service can be resumed later.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        reports: List[EpochReport] = []
        interrupted: Optional[str] = None
        for _ in range(epochs):
            if state is not None and state.interrupted:
                interrupted = state.signal_name
                break
            report = self.run_epoch(dry_run=dry_run, state=state)
            if report is None:  # interrupted mid-epoch
                interrupted = None if state is None else state.signal_name
                break
            reports.append(report)
            if on_epoch is not None:
                on_epoch(report)
        if interrupted is not None and self._store is not None:
            self._store.append_event("interrupted", signal=interrupted,
                                     epoch=self.epoch)
        elif self._store is not None and not dry_run and reports:
            # Clean completion: compact to the canonical snapshot
            # (drops transient events, orders records), so any two
            # services that applied the same epochs leave
            # byte-identical journals regardless of crash/resume
            # history — the property the crash/resume checks diff.
            self._store.snapshot()
        return reports, interrupted

    # ------------------------------------------------------------------
    # internals

    def _dispatch(self, specs: Sequence[WorkSpec],
                  state: Optional[InterruptState],
                  epoch: int) -> Dict[int, Any]:
        """Solve every shard; per-index results keyed by spec index.

        The service's deadline (``timeout_s``) and retry budget ride
        into :func:`~repro.sim.dispatch.dispatch_chunked`, so a hung
        shard is reaped as a timeout :class:`WorkFailure` instead of
        stalling the epoch.  Chaos shard faults for the epoch are
        drawn parent-side (:meth:`FleetFaultModel.shard_plan`) and
        shipped to workers as the batch config's fault hook.
        """
        results: Dict[int, Any] = {}

        def record(index: int, result: Any) -> None:
            results[index] = result

        plan: Optional[ShardFaultPlan] = None
        if self.fault_model is not None:
            plan = self.fault_model.shard_plan(self.spec.seed, epoch,
                                               len(specs))
        config = _ShardConfig(
            plc_mode=self.spec.plc_mode,
            retry_budget=self.retry_budget,
            fault_hook=None if plan is None else plan.schedule)
        workers = self.workers
        use_pool = (workers is not None and workers >= 1
                    and (workers > 1 or self.timeout_s is not None))
        if use_pool:
            dispatch_chunked(specs, config, _solve_shard,
                             workers=workers,
                             chunk_size=self.chunk_size,
                             retry_budget=self.retry_budget,
                             timeout_s=self.timeout_s,
                             record=record, state=state)
        else:
            # A planned hang cannot be reaped without a process
            # boundary, so the serial path synthesizes its reaping —
            # same index, same error_type, no sleeping — keeping
            # serial and pooled chaos runs bit-identical.
            hung = (frozenset(plan.hung) if plan is not None
                    else frozenset())
            for spec in specs:
                if state is not None and state.interrupted:
                    break
                if spec.index in hung:
                    record(spec.index, timeout_failure(spec.index,
                                                       self.timeout_s))
                    continue
                record(spec.index, _solve_shard(config, spec))
        return results

    def _settle_building(self, bstate: _BuildingState,
                         scenario: Scenario,
                         quarantined: Tuple[int, ...],
                         segments: Sequence[Segment],
                         results: Sequence[Any],
                         apply: bool) -> BuildingEpoch:
        """Scatter shard results, diff directives, optionally apply."""
        servable = _servable(bstate.assignment, scenario)
        solved = [(segment, result)
                  for segment, result in zip(segments, results)
                  if not isinstance(result, WorkFailure)]
        new = scatter_assignment(servable.shape[0],
                                 [segment for segment, _ in solved],
                                 [result for _, result in solved])
        shard_failures = 0
        shard_timeouts = 0
        for segment, result in zip(segments, results):
            if not isinstance(result, WorkFailure):
                continue
            # Shard quarantine: its users keep their previous
            # association (when still reachable) instead of taking the
            # building down with the failed solve.
            shard_failures += 1
            if result.error_type == TIMEOUT_ERROR_TYPE:
                shard_timeouts += 1
            if apply and self._store is not None:
                self._store.append_event(
                    "shard-failure", epoch=self.epoch,
                    building=bstate.name, segment=segment.index,
                    error_type=result.error_type)
            users = np.asarray(segment.users, dtype=int)
            new[users] = servable[users]
        return self._compose_building_epoch(
            bstate, scenario, quarantined, new, servable,
            n_segments=len(segments), shard_failures=shard_failures,
            shard_timeouts=shard_timeouts, apply=apply)

    def _carry_building(self, bstate: _BuildingState,
                        scenario: Scenario,
                        quarantined: Tuple[int, ...],
                        apply: bool) -> BuildingEpoch:
        """An open-breaker epoch: carry the association forward.

        No shards are solved; users whose extender is no longer usable
        under this epoch's effective scenario are detached, and the
        guard still validates what is kept — a breaker protects the
        campus from a sick building's solve cost, not from invariants.
        """
        servable = _servable(bstate.assignment, scenario)
        return self._compose_building_epoch(
            bstate, scenario, quarantined, servable, servable,
            n_segments=0, shard_failures=0, shard_timeouts=0,
            apply=apply)

    def _compose_building_epoch(self, bstate: _BuildingState,
                                scenario: Scenario,
                                quarantined: Tuple[int, ...],
                                new: np.ndarray, servable: np.ndarray,
                                n_segments: int,
                                shard_failures: int,
                                shard_timeouts: int,
                                apply: bool) -> BuildingEpoch:
        """Guard-repair ``new``, diff directives, optionally apply.

        Directives are scored against the previous association *as
        servable this epoch* (``servable``: users whose extender
        vanished contribute nothing to the baseline), committing one
        move at a time in user order.  Each move recomputes only the
        two cells it touches, and every running aggregate is
        bit-identical to a full :func:`~repro.net.engine.evaluate` of
        the intermediate assignment.
        """
        old = bstate.assignment
        new, _ = bstate.guard.repair_assignment(
            scenario, new, source="fleet", require_complete=False)
        scorer = DeltaEvaluator(scenario, servable,
                                plc_mode=self.spec.plc_mode)
        baseline = running = scorer.aggregate
        directives: List[Directive] = []
        for user in np.flatnonzero(new != old).tolist():
            moved = scorer.commit(user, int(new[user]))
            directives.append(Directive(
                building=bstate.name, user=user,
                old_extender=int(old[user]),
                new_extender=int(new[user]),
                delta_mbps=float(moved - running)))
            running = moved
        if apply:
            bstate.assignment = new
        return BuildingEpoch(building=bstate.name,
                             n_segments=n_segments,
                             n_shard_failures=shard_failures,
                             n_shard_timeouts=shard_timeouts,
                             quarantined=quarantined,
                             aggregate_mbps=float(running),
                             delta_mbps=float(running - baseline),
                             directives=tuple(directives))

    def _update_breaker(self, bstate: _BuildingState,
                        report: BuildingEpoch, solved: bool,
                        apply: bool) -> BuildingEpoch:
        """Advance one building's breaker/staleness state machine.

        Mirrors :class:`~repro.core.health.HealthMonitor`:
        ``breaker_strikes`` consecutive epochs with shard
        failures/timeouts trip the breaker; an open breaker idles
        toward its probation epoch; a clean probe closes it, a failed
        probe re-opens it.  Like health state, the machine advances in
        dry-run too (``apply`` only gates journal events) — previews
        keep previewing what the next epoch would actually do.

        Returns the building report stamped with the post-update
        staleness and breaker state.
        """
        health = self.spec.health
        if not solved:
            bstate.breaker_open_epochs += 1
            bstate.staleness += 1
        elif report.n_shard_failures > 0:
            bstate.staleness += 1
            if bstate.breaker_open:
                # Failed probe: the open window restarts.
                bstate.breaker_open_epochs = 0
                self._breaker_event("breaker-probe-failed", bstate,
                                    apply)
            else:
                bstate.fail_streak += 1
                if bstate.fail_streak >= health.breaker_strikes:
                    bstate.breaker_open = True
                    bstate.breaker_open_epochs = 0
                    self._breaker_event("breaker-open", bstate, apply)
        else:
            bstate.staleness = 0
            bstate.fail_streak = 0
            if bstate.breaker_open:
                bstate.breaker_open = False
                bstate.breaker_open_epochs = 0
                self._breaker_event("breaker-close", bstate, apply)
        return replace(report, staleness=bstate.staleness,
                       breaker_open=bstate.breaker_open)

    def _breaker_event(self, event: str, bstate: _BuildingState,
                       apply: bool) -> None:
        if apply and self._store is not None:
            self._store.append_event(event, epoch=self.epoch,
                                     building=bstate.name)

    # ------------------------------------------------------------------
    # journaling and resume

    def _encode_epoch(self, report: EpochReport) -> Dict[str, Any]:
        return {
            "aggregate_mbps": report.aggregate_mbps,
            "delta_mbps": report.delta_mbps,
            "n_shards": report.n_shards,
            "n_shard_failures": report.n_shard_failures,
            "n_shard_timeouts": report.n_shard_timeouts,
            "n_degraded_buildings": report.n_degraded_buildings,
            "n_rejected_records": report.n_rejected_records,
            "rejected": {cls: n for cls, n in report.rejected},
            "buildings": [
                {"name": b.building,
                 "assignment": self._buildings[i].assignment.tolist(),
                 "aggregate_mbps": b.aggregate_mbps,
                 "delta_mbps": b.delta_mbps,
                 "n_segments": b.n_segments,
                 "n_shard_timeouts": b.n_shard_timeouts,
                 "quarantined": list(b.quarantined),
                 # Breaker/staleness state *after* this epoch, so
                 # resume restores the machine exactly (fail_streak
                 # and the open-epoch counter have no place in the
                 # report dataclass but resume needs them).
                 "staleness": self._buildings[i].staleness,
                 "fail_streak": self._buildings[i].fail_streak,
                 "breaker_open": self._buildings[i].breaker_open,
                 "breaker_open_epochs":
                     self._buildings[i].breaker_open_epochs,
                 "directives": [[d.user, d.old_extender,
                                 d.new_extender, d.delta_mbps]
                                for d in b.directives]}
                for i, b in enumerate(report.buildings)],
        }

    def _replay(self, records: Dict[int, Any]) -> None:
        """Restore service state from a recovered epoch journal.

        Telemetry is a pure function of ``(seed, building, epoch)``,
        so replaying the recorded epochs through each health monitor
        (with the journaled associations supplying the traffic masks)
        reconstructs the exact pre-crash state; the continuation is
        bit-identical to a run that was never interrupted
        (``tests/test_fleet_service.py``).
        """
        epochs = sorted(records)
        if epochs != list(range(len(epochs))):
            from ..sim.checkpoint import CorruptCheckpoint
            raise CorruptCheckpoint(
                f"fleet journal epochs {epochs} are not contiguous "
                "from 0; refusing to resume")
        for epoch in epochs:
            payload = records[epoch]
            entries = payload.get("buildings", [])
            if len(entries) != len(self._buildings):
                from ..sim.checkpoint import CorruptCheckpoint
                raise CorruptCheckpoint(
                    f"fleet journal epoch {epoch} covers "
                    f"{len(entries)} buildings, spec has "
                    f"{len(self._buildings)}")
            for bstate, entry in zip(self._buildings, entries):
                self._observe(bstate, epoch)
                bstate.assignment = np.asarray(entry["assignment"],
                                               dtype=int)
        # Breaker/staleness state was journaled post-update per epoch;
        # the final record IS the pre-crash machine state.
        final = records[epochs[-1]].get("buildings", [])
        for bstate, entry in zip(self._buildings, final):
            bstate.staleness = int(entry.get("staleness", 0))
            bstate.fail_streak = int(entry.get("fail_streak", 0))
            bstate.breaker_open = bool(entry.get("breaker_open",
                                                 False))
            bstate.breaker_open_epochs = int(
                entry.get("breaker_open_epochs", 0))
        self.epoch = len(epochs)


# ---------------------------------------------------------------------------
# rendering (byte-stable: the dry-run preview is golden-file tested)


def _ext_label(extender: int) -> str:
    return "none" if extender == UNASSIGNED else str(extender)


def format_epoch(report: EpochReport, directives: bool = True) -> str:
    """Render one epoch as a stable, diff-friendly text block.

    The format is deliberately deterministic — fixed float precision,
    spec ordering, no timestamps — so ``wolt serve --dry-run`` output
    can be diffed against a golden file in CI.
    """
    mode = "preview" if not report.applied else "applied"
    lines = [
        f"epoch {report.epoch} ({mode}): "
        f"{len(report.buildings)} buildings, {report.n_shards} shards"
        f" ({report.n_shard_failures} failed, "
        f"{report.n_shard_timeouts} timed out), "
        f"{report.n_degraded_buildings} degraded, "
        f"{report.n_rejected_records} rejected, "
        f"{len(report.directives)} directives, aggregate "
        f"{report.aggregate_mbps:.6f} Mbps "
        f"({report.delta_mbps:+.6f})"]
    if report.rejected:
        lines.append("  rejected: " + " ".join(
            f"{cls}={n}" for cls, n in report.rejected))
    for building in report.buildings:
        notes = ""
        if building.staleness:
            notes += f" staleness={building.staleness}"
        if building.breaker_open:
            notes += " breaker=open"
        if building.quarantined:
            notes += " quarantined=" + ",".join(
                str(j) for j in building.quarantined)
        lines.append(
            f"  [{building.building}] segments "
            f"{building.n_segments}, aggregate "
            f"{building.aggregate_mbps:.6f} Mbps "
            f"({building.delta_mbps:+.6f}){notes}")
        if directives:
            for d in building.directives:
                lines.append(
                    f"    user {d.user}: {_ext_label(d.old_extender)}"
                    f" -> {_ext_label(d.new_extender)} "
                    f"({d.delta_mbps:+.6f} Mbps)")
    return "\n".join(lines)
