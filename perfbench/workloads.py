"""The benchmark's three workloads, untraced and traced.

Each workload builds its inputs from the seed alone; the program under
test sees only those inputs.  An untraced run returns the end-to-end
metrics; a traced run replays the workload in passes (untraced, traced
as configured, and for pooled workloads traced serially) and returns
the per-layer metrics.  Both runs check every output (``checks.py``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.baselines import greedy_assignment
from repro.core.guard import DecisionGuard
from repro.core.problem import MIN_USABLE_RATE, UNASSIGNED
from repro.fleet.ingest import RecordedTelemetry, write_stream
from repro.fleet.service import EpochReport, FleetService
from repro.fleet.spec import (BuildingSpec, FleetSpec, TelemetryModel,
                              build_building_scenario,
                              synthesize_observation)
from repro.net.engine import count_engine_calls, evaluate
from repro.sim.dispatch import shutdown_warm_pools
from repro.sim.runner import TrialResult, run_trials

import checks
from tracing import Target, Tracer, patched, percentile

#: Worker processes of the pooled workloads (``nproc`` = 2 here, and
#: the parent's serial section runs beside them).
WORKERS = 2

#: Users at or below this count make a shard "tiny".
TINY_SHARD_USERS = 8

#: Traced runs: share of ``--seconds`` the untraced pass gets; the two
#: traced passes then replay exactly as many epochs.
TRACE_PASS_SHARE = 0.3


@dataclass(frozen=True)
class Scale:
    """Workload sizes (``smoke`` shrinks them for the self-test)."""

    campus_buildings: int = 1000
    campus_stream_epochs: int = 32
    campus_decision_epochs: int = 8
    campus_setup_reps: int = 4
    tower_buildings: int = 10
    tower_users: int = 124
    tower_decision_epochs: int = 4
    tower_setup_reps: int = 5
    sweep_round_trials: int = 32
    sweep_decision_rounds: int = 8
    sweep_setup_reps: int = 9


FULL = Scale()
SMOKE = Scale(campus_buildings=40, campus_stream_epochs=6,
              campus_decision_epochs=2, campus_setup_reps=2,
              tower_buildings=2, tower_users=30, tower_decision_epochs=2,
              tower_setup_reps=2, sweep_round_trials=4,
              sweep_decision_rounds=2, sweep_setup_reps=2)


@dataclass
class Outcome:
    """One run's verdict, counters and metrics."""

    check: checks.CheckResult
    metrics: Dict[str, float]
    shape: Dict[str, Any]
    tables: List[str] = field(default_factory=list)


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _share(part: float, whole: float) -> float:
    return float(part) / whole if whole else 0.0


# ---------------------------------------------------------------------------
# serve workloads


class ServeWorkload:
    """A ``wolt serve`` fleet: spec, telemetry and how it is served."""

    name = ""
    workers: Optional[int] = None
    journaled = False
    #: Epochs the telemetry source can serve (None = unbounded).
    max_epochs: Optional[int] = None

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.spec = self.make_spec()
        self.load_s = 0.0
        self.n_rejected = 0
        self.journal: Optional[Path] = None
        self._opened = 0

    # hooks the subclasses fill in
    def make_spec(self) -> FleetSpec:
        raise NotImplementedError

    @property
    def decision_epochs(self) -> int:
        raise NotImplementedError

    @property
    def setup_reps(self) -> int:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work done before any timing starts."""

    def source(self) -> Optional[RecordedTelemetry]:
        return None

    def raw(self, building: int, epoch: int
            ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        raise NotImplementedError

    # shared machinery
    def open(self, workers: Optional[int]) -> Tuple[FleetService, float]:
        """Set up a service as an operator would; returns its set-up time."""
        self._opened += 1
        self.journal = (self.workdir / f"journal-{self._opened}.jsonl"
                        if self.journaled else None)
        start = time.perf_counter()
        source = self.source()
        service = FleetService(
            self.spec, workers=workers, source=source,
            journal=None if self.journal is None else str(self.journal))
        return service, time.perf_counter() - start

    def shape(self, shards_epoch0: int, epochs: int) -> Dict[str, Any]:
        return {"buildings": self.spec.n_buildings,
                "users": self.spec.n_users,
                "shards_epoch0": shards_epoch0, "epochs": epochs,
                "workers": self.workers or 1,
                "plc_mode": self.spec.plc_mode}


class CampusReplay(ServeWorkload):
    """``wolt serve --from stream --journal j --workers 2``, 1000 buildings."""

    name = "campus-replay"
    workers = WORKERS
    journaled = True

    def make_spec(self) -> FleetSpec:
        return FleetSpec(
            name="campus-bench", seed=self.seed, plc_mode="redistribute",
            buildings=tuple(
                BuildingSpec(name=f"bldg-{i:04d}", n_extenders=3,
                             n_users=6)
                for i in range(self.scale.campus_buildings)),
            telemetry=TelemetryModel(plc_jitter=0.05))

    @property
    def decision_epochs(self) -> int:
        return self.scale.campus_decision_epochs

    @property
    def setup_reps(self) -> int:
        return self.scale.campus_setup_reps

    @property
    def max_epochs(self) -> int:  # type: ignore[override]
        return self.scale.campus_stream_epochs

    @property
    def stream(self) -> Path:
        return self.workdir / "stream.jsonl"

    def prepare(self) -> None:
        write_stream(self.stream, self.spec, self.max_epochs)

    def source(self) -> RecordedTelemetry:
        start = time.perf_counter()
        source = RecordedTelemetry.load(self.stream, self.spec)
        self.load_s = time.perf_counter() - start
        self.n_rejected = source.n_rejected
        self._replay = source  # what the checker reads back
        return source

    def raw(self, building: int, epoch: int
            ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        return self._replay.observe(building, epoch)


class Tower(ServeWorkload):
    """Ten Fig. 6 floors (15 extenders x 124 users), serial, no journal."""

    name = "tower"
    workers = None
    journaled = False

    def make_spec(self) -> FleetSpec:
        return FleetSpec(
            name="tower-bench", seed=self.seed, plc_mode="redistribute",
            buildings=tuple(
                BuildingSpec(name=f"floor-{i:02d}", n_extenders=15,
                             n_users=self.scale.tower_users)
                for i in range(self.scale.tower_buildings)),
            telemetry=TelemetryModel(wifi_jitter=0.02, plc_jitter=0.05,
                                     dropout=0.01))

    @property
    def decision_epochs(self) -> int:
        return self.scale.tower_decision_epochs

    @property
    def setup_reps(self) -> int:
        return self.scale.tower_setup_reps

    def prepare(self) -> None:
        self._true = [build_building_scenario(self.spec, b)
                      for b in range(self.spec.n_buildings)]

    def raw(self, building: int, epoch: int
            ) -> Tuple[np.ndarray, np.ndarray]:
        return synthesize_observation(self.spec, self._true[building],
                                      building, epoch)


def run_epochs(service: FleetService, seconds: float, min_epochs: int,
               max_epochs: Optional[int],
               step: Optional[Callable[[], EpochReport]] = None
               ) -> Tuple[List[EpochReport], List[float]]:
    """Run epochs until ``seconds`` pass (at least ``min_epochs``)."""
    step = step or service.run_epoch
    reports: List[EpochReport] = []
    walls: List[float] = []
    start = time.perf_counter()
    while max_epochs is None or len(reports) < max_epochs:
        if (len(reports) >= min_epochs
                and time.perf_counter() - start >= seconds):
            break
        t0 = time.perf_counter()
        reports.append(step())
        walls.append(time.perf_counter() - t0)
    return reports, walls


def greedy_ratio(workload: ServeWorkload, checker: checks.ServeChecker,
                 report: EpochReport) -> float:
    """Applied aggregate over Greedy's on the same observed scenarios."""
    guard = DecisionGuard()
    greedy_total = 0.0
    for b, scenario in enumerate(checker.scenarios):
        if scenario is None:
            return 0.0
        rng = np.random.default_rng(
            np.random.SeedSequence([workload.seed, b]))
        assignment = greedy_assignment(
            scenario, arrival_order=rng.permutation(scenario.n_users),
            plc_mode=workload.spec.plc_mode, guard=guard)
        greedy_total += evaluate(scenario, assignment,
                                 plc_mode=workload.spec.plc_mode).aggregate
    return _share(report.aggregate_mbps, greedy_total)


def serve_untraced(workload: ServeWorkload, seconds: float) -> Outcome:
    """Run steady epochs for ``seconds``, onboarding fresh services between.

    ``setup_reps`` times, spread evenly over the steady window (the
    first before it), a fresh service is set up and runs its epoch 0;
    ``setup_s`` and ``first_epoch_s`` are the medians of those samples,
    so slow drift in machine speed hits them as it hits the steady
    epochs.  The first service carries on into the steady epochs.

    Each epoch is checked as soon as it has been timed and only scalars
    are kept, so the benchmark's own heap does not grow with the run.
    """
    workload.prepare()
    checker = checks.ServeChecker(workload.spec, workload.raw)
    k = workload.decision_epochs
    setups: List[float] = []
    firsts: List[float] = []
    walls: List[float] = []
    aggregates: List[float] = []
    handoffs: List[int] = []
    shards: List[int] = []
    ratio = 0.0
    epoch0: List[EpochReport] = []

    def onboard() -> FleetService:
        service, setup_s = workload.open(workload.workers)
        (first,), (wall,) = run_epochs(service, 0.0, 1, 1)
        setups.append(setup_s)
        firsts.append(wall)
        if not epoch0:
            epoch0.append(first)
            checker.check_epoch(first)
        elif first != epoch0[0]:
            checker.result.fail(first.n_shards,
                                "epoch 0 differs between identical set-ups")
        return service

    reps = workload.setup_reps
    service = onboard()
    try:
        while (workload.max_epochs is None
               or len(walls) + 1 < workload.max_epochs):
            busy = sum(walls)
            if len(setups) < reps and busy >= len(setups) * seconds / reps:
                onboard().close()
                continue
            if len(setups) >= reps and len(walls) >= k and busy >= seconds:
                break
            (report,), (wall,) = run_epochs(service, 0.0, 1, 1)
            walls.append(wall)
            shards.append(report.n_shards)
            checker.check_epoch(report)
            if report.epoch <= k:
                aggregates.append(report.aggregate_mbps)
                handoffs.append(len(report.directives))
            if report.epoch == k:
                ratio = greedy_ratio(workload, checker, report)
    finally:
        service.close()
    metrics = {
        "setup_s": _median(setups),
        "first_epoch_s": _median(firsts),
        "epoch_p50_s": _median(walls),
        "trials_per_s": _share(sum(shards), sum(walls)),
        "aggregate_mbps": _mean(aggregates),
        "handoffs_per_epoch": _mean(handoffs),
        "wolt_vs_greedy": ratio,
    }
    return Outcome(checker.result, metrics,
                   workload.shape(epoch0[0].n_shards, 1 + len(walls)))


class ServeProbe:
    """Hook-fed per-epoch bookkeeping for one traced serve pass.

    Split calls arrive in building order (every building solves on a
    clean run), so the i-th call of an epoch is building i.
    """

    def __init__(self, n_users: Sequence[int]) -> None:
        self.epoch = -1
        self.masks: Dict[int, np.ndarray] = {}
        self.mask_same = 0
        self.mask_compared = 0
        self.segments: List[Any] = []
        self.n_segments = 0
        self.n_tiny = 0
        self.solves: List[np.ndarray] = []
        self.solve_same = 0
        self.solve_compared = 0
        self.items = 0
        self.repairs = 0
        self.assignments = [np.full(n, UNASSIGNED, dtype=int)
                            for n in n_users]

    def begin(self) -> None:
        self.epoch += 1
        self.segments = []
        self.solves = []

    def on_split(self, args: tuple, kwargs: dict, result: Any) -> None:
        scenario = args[0] if args else kwargs["scenario"]
        position = len(self.segments)
        self.segments.append(result)
        self.n_segments += len(result)
        self.n_tiny += sum(1 for s in result
                           if len(s.users) <= TINY_SHARD_USERS)
        mask = scenario.wifi_rates > MIN_USABLE_RATE
        previous = self.masks.get(position)
        if previous is not None:
            self.mask_compared += 1
            self.mask_same += int(np.array_equal(previous, mask))
        self.masks[position] = mask

    def on_solve(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.solves.append(np.asarray(result.assignment, dtype=int))

    def on_dispatch(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.items += len(args[0] if args else kwargs["specs"])

    def on_repair(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.repairs += len(result[1].violations)

    def end(self, report: EpochReport) -> None:
        if (self.solves and self.epoch >= 1
                and len(self.segments) == len(report.buildings)):
            solves = iter(self.solves)
            for b, segments in enumerate(self.segments):
                previous = self.assignments[b]
                for segment in segments:
                    if segment.scenario.n_users == 0:
                        continue
                    local = next(solves, None)
                    if local is None:
                        break
                    ext = np.asarray(segment.extenders, dtype=int)
                    users = np.asarray(segment.users, dtype=int)
                    mapped = np.where(local == UNASSIGNED, UNASSIGNED,
                                      ext[np.maximum(local, 0)])
                    self.solve_compared += 1
                    self.solve_same += int(np.array_equal(
                        mapped, previous[users]))
        for b, entry in enumerate(report.buildings):
            for d in entry.directives:
                self.assignments[b][d.user] = d.new_extender


def _serve_targets(probe: ServeProbe, solves: bool) -> List[Target]:
    targets = [
        Target("repro.fleet.service:split_segments", "split",
               probe.on_split),
        Target("repro.fleet.service:dispatch_chunked", "dispatch",
               probe.on_dispatch),
        Target("repro.fleet.service:evaluate", "compose.evaluate"),
        Target("repro.fleet.service:build_building_scenario", "topology"),
        Target("repro.fleet.ingest:RecordedTelemetry.observe",
               "telemetry.observe"),
        Target("repro.fleet.ingest:SyntheticTelemetry.observe",
               "telemetry.observe"),
        Target("repro.core.health:HealthMonitor.observe",
               "health.observe"),
        Target("repro.core.health:HealthMonitor.effective_rates",
               "health.effective_rates"),
        Target("repro.core.guard:DecisionGuard.repair_assignment",
               "guard.repair", probe.on_repair),
        Target("repro.sim.checkpoint:TrialStore.append",
               "journal.append"),
    ]
    if solves:
        targets += [
            Target("repro.fleet.service:solve_wolt", "solve",
                   probe.on_solve),
            Target("repro.core.wolt:phase1_utilities", "phase1"),
            Target("repro.core.wolt:solve_phase1", "phase1"),
            Target("repro.core.wolt:solve_phase2", "phase2"),
        ]
    return targets


@dataclass
class TracedPass:
    tracer: Tracer
    probe: ServeProbe
    reports: List[EpochReport]
    walls: List[float]
    engine: Dict[str, int]
    topology_s: float = 0.0
    journal_bytes: int = 0


def _engine_dict(stats: Any) -> Dict[str, int]:
    return {"scalar_calls": stats.scalar_calls,
            "batch_rows": stats.batch_rows,
            "delta_moves": stats.delta_moves}


def serve_traced_pass(workload: ServeWorkload, workers: Optional[int],
                      epochs: int, solves: bool) -> TracedPass:
    tracer = Tracer()
    probe = ServeProbe([b.n_users for b in workload.spec.buildings])
    with patched(tracer, _serve_targets(probe, solves)):
        service, _ = workload.open(workers)
        topology_s = tracer.total("topology")
        traced_epoch = tracer.wrap("epoch", service.run_epoch)

        def step() -> EpochReport:
            probe.begin()
            report = traced_epoch()
            probe.end(report)
            return report

        try:
            with count_engine_calls() as stats:
                reports, walls = run_epochs(service, 0.0, epochs, epochs,
                                            step=step)
        finally:
            service.close()
    journal = workload.journal
    size = journal.stat().st_size if journal is not None else 0
    return TracedPass(tracer, probe, reports, walls, _engine_dict(stats),
                      topology_s, size)


def serve_traced(workload: ServeWorkload, seconds: float) -> Outcome:
    workload.prepare()
    service, _ = workload.open(workload.workers)
    try:
        base, base_walls = run_epochs(service, seconds * TRACE_PASS_SHARE,
                                      3, workload.max_epochs)
    finally:
        service.close()
    n = len(base)
    check = checks.check_serve(workload.spec, workload.raw, base)
    pooled = workload.workers is not None
    parent = serve_traced_pass(workload, workload.workers, n,
                               solves=not pooled)
    load_s, n_rejected = workload.load_s, workload.n_rejected
    solving = (serve_traced_pass(workload, None, n, solves=True)
               if pooled else parent)
    for label, run in (("traced", parent), ("serial", solving)):
        if run.reports != base:
            check.fail(max(sum(r.n_shards for r in base), 1),
                       f"{label} replay decided differently from the "
                       "untraced pooled run")
    a, s = parent.tracer, solving.tracer
    steady = base[1:]
    directives = [d for r in steady for d in r.directives]
    dispatch_wall = a.total("dispatch")
    kernel = s.total("solve")
    solve_us = [d * 1e6 for d in s.durations("solve")]
    records = (workload.max_epochs or 0) * workload.spec.n_buildings
    metrics = {
        "ingest.load_s": load_s,
        "ingest.records_per_s": _share(records, load_s),
        "ingest.rejected": n_rejected,
        "telemetry.observe_s": a.total("telemetry.observe") / n,
        "health.observe_s": a.total("health.observe",
                                    "health.effective_rates") / n,
        "health.quarantined": _mean([sum(len(b.quarantined)
                                         for b in r.buildings)
                                     for r in base]),
        "split.busy_s": a.total("split") / n,
        "split.calls": a.count("split") / n,
        "split.segments": parent.probe.n_segments / n,
        "split.unchanged_mask_share": _share(parent.probe.mask_same,
                                             parent.probe.mask_compared),
        "shards.tiny_share": _share(parent.probe.n_tiny,
                                    parent.probe.n_segments),
        "dispatch.wall_s": dispatch_wall / n,
        "dispatch.items": parent.probe.items / n,
        "dispatch.efficiency": _share(kernel, WORKERS * dispatch_wall),
        "solve.calls": s.count("solve") / n,
        "solve.busy_s": kernel / n,
        "solve.p50_us": percentile(solve_us, 50),
        "solve.p99_us": percentile(solve_us, 99),
        "solve.unchanged_share": _share(solving.probe.solve_same,
                                        solving.probe.solve_compared),
        "phase1.busy_s": s.total("phase1") / n,
        "phase2.busy_s": s.total("phase2") / n,
        "engine.scalar_calls": solving.engine["scalar_calls"] / n,
        "engine.batch_rows": solving.engine["batch_rows"] / n,
        "engine.delta_moves": solving.engine["delta_moves"] / n,
        "compose.evaluate_s": a.total("compose.evaluate") / n,
        "guard.busy_s": a.total("guard.repair") / n,
        "guard.repairs": parent.probe.repairs / n,
        "service.self_s": a.self_times().get("epoch", 0.0) / n,
        "directives.sub1mbps_share": _share(
            sum(1 for d in directives if abs(d.delta_mbps) < 1.0),
            len(directives)),
        "journal.append_s": a.total("journal.append") / n,
        "journal.bytes_per_epoch": parent.journal_bytes / n,
        "topology.busy_s": parent.topology_s,
        "policy.wolt_s": 0.0,
        "policy.greedy_s": 0.0,
        "policy.rssi_s": 0.0,
        "trace.overhead": _share(sum(parent.walls[1:]),
                                 sum(base_walls[1:])),
    }
    tables = [f"spans, traced pass ({n} epochs, per epoch):"] + a.table(n)
    if pooled:
        tables += [f"spans, serial pass ({n} epochs, per epoch):"]
        tables += s.table(n)
    return Outcome(check, metrics,
                   workload.shape(base[0].n_shards, len(base)), tables)


# ---------------------------------------------------------------------------
# the Fig. 6a sweep

POLICIES = ("wolt", "greedy", "rssi")
SWEEP_EXTENDERS = 15
SWEEP_USERS = 36
SWEEP_PLC_MODE = "fixed"


class Sweep:
    """``run_trials`` rounds at Fig. 6a scale; a round is its epoch."""

    name = "sweep-fig6a"

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale

    def round_seed(self, index: int) -> int:
        return int(np.random.SeedSequence(
            [self.seed, index]).generate_state(1)[0])

    def start_pool(self) -> float:
        """Cold-start the warm worker pool; returns the wall time."""
        shutdown_warm_pools()
        start = time.perf_counter()
        run_trials(WORKERS, 2, 2, policies=("rssi",), seed=0,
                   workers=WORKERS)
        return time.perf_counter() - start

    def run_round(self, index: int, workers: Optional[int]
                  ) -> Tuple[List[Any], float]:
        start = time.perf_counter()
        results = run_trials(self.scale.sweep_round_trials,
                             SWEEP_EXTENDERS, SWEEP_USERS,
                             policies=POLICIES, seed=self.round_seed(index),
                             plc_mode=SWEEP_PLC_MODE, workers=workers)
        return list(results), time.perf_counter() - start

    def run_rounds(self, seconds: float, min_rounds: int,
                   max_rounds: Optional[int], workers: Optional[int],
                   round_fn: Optional[Callable[..., Any]] = None
                   ) -> Tuple[List[List[Any]], List[float]]:
        rounds: List[List[Any]] = []
        walls: List[float] = []
        start = time.perf_counter()
        while max_rounds is None or len(rounds) < max_rounds:
            if (len(rounds) >= min_rounds
                    and time.perf_counter() - start >= seconds):
                break
            results, wall = (round_fn or self.run_round)(len(rounds),
                                                         workers)
            rounds.append(results)
            walls.append(wall)
        return rounds, walls

    def check(self, rounds: Sequence[Sequence[Any]]) -> checks.CheckResult:
        return checks.merge([
            checks.check_trials(r, self.scale.sweep_round_trials,
                                SWEEP_PLC_MODE) for r in rounds])

    def shape(self, rounds: int) -> Dict[str, Any]:
        return {"extenders": SWEEP_EXTENDERS, "users": SWEEP_USERS,
                "trials_per_round": self.scale.sweep_round_trials,
                "rounds": rounds,
                "trials": rounds * self.scale.sweep_round_trials,
                "workers": WORKERS, "plc_mode": SWEEP_PLC_MODE}


def _trials(rounds: Sequence[Sequence[Any]]) -> List[TrialResult]:
    return [t for r in rounds for t in r if isinstance(t, TrialResult)]


def _moves_from_rssi(trial: TrialResult) -> int:
    wolt = np.asarray(trial.outcomes["wolt"].assignment)
    rssi = np.asarray(trial.outcomes["rssi"].assignment)
    return int(np.count_nonzero(wolt != rssi))


def sweep_untraced(sweep: Sweep, seconds: float) -> Outcome:
    """Run steady rounds for ``seconds``, cold-starting the pool between.

    ``sweep_setup_reps`` pool cold starts, spread evenly over the
    window, give ``setup_s``; each is followed by round 0, whose median
    is ``first_epoch_s``.  Rounds are checked as they finish and only
    scalars are kept.
    """
    setups: List[float] = []
    firsts: List[float] = []
    walls: List[float] = []
    verdicts: List[checks.CheckResult] = []
    wolt: List[float] = []
    greedy: List[float] = []
    moves: List[int] = []
    round0: List[List[Any]] = []
    reps = sweep.scale.sweep_setup_reps
    k = sweep.scale.sweep_decision_rounds

    def account(results: List[Any]) -> None:
        verdicts.append(sweep.check([results]))
        if len(moves) < k:
            trials = _trials([results])
            wolt.extend(t.aggregate("wolt") for t in trials)
            greedy.extend(t.aggregate("greedy") for t in trials)
            moves.append(sum(_moves_from_rssi(t) for t in trials))

    while True:
        busy = sum(walls)
        if len(setups) < reps and busy >= len(setups) * seconds / reps:
            setups.append(sweep.start_pool())
            first, wall = sweep.run_round(0, WORKERS)
            firsts.append(wall)
            if not round0:
                round0.append(first)
                account(first)
            elif not _same_trials(round0, [first]):
                verdicts.append(checks.CheckResult())
                verdicts[-1].fail(len(first), "round 0 differs between pools")
            continue
        if len(setups) >= reps and len(walls) >= k and busy >= seconds:
            break
        results, wall = sweep.run_round(1 + len(walls), WORKERS)
        walls.append(wall)
        account(results)
    metrics = {
        "setup_s": _median(setups),
        "first_epoch_s": _median(firsts),
        "epoch_p50_s": _median(walls),
        "trials_per_s": _share(sweep.scale.sweep_round_trials * len(walls),
                               sum(walls)),
        "aggregate_mbps": _mean(wolt),
        "handoffs_per_epoch": _mean(moves),
        "wolt_vs_greedy": _share(_mean(wolt), _mean(greedy)),
    }
    return Outcome(checks.merge(verdicts), metrics,
                   sweep.shape(1 + len(walls)))


def _same_trials(a: Sequence[Sequence[Any]],
                 b: Sequence[Sequence[Any]]) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for ta, tb in zip(ra, rb):
            if not (isinstance(ta, TrialResult)
                    and isinstance(tb, TrialResult)):
                return False
            for policy in POLICIES:
                oa, ob = ta.outcomes[policy], tb.outcomes[policy]
                if (oa.aggregate_throughput != ob.aggregate_throughput
                        or not np.array_equal(oa.assignment,
                                              ob.assignment)):
                    return False
    return True


def sweep_traced(sweep: Sweep, seconds: float) -> Outcome:
    sweep.start_pool()
    base, base_walls = sweep.run_rounds(seconds * TRACE_PASS_SHARE, 2,
                                        None, WORKERS)
    n = len(base)
    check = sweep.check(base)
    items = [0]

    def on_dispatch(args: tuple, kwargs: dict, result: Any) -> None:
        items[0] += len(args[0] if args else kwargs["specs"])

    parent = Tracer()
    with patched(parent, [Target("repro.sim.runner:dispatch_chunked",
                                 "dispatch", on_dispatch)]):
        traced_round = parent.wrap("epoch", sweep.run_round)
        pooled, pooled_walls = sweep.run_rounds(0.0, n, n, WORKERS,
                                                round_fn=traced_round)
    serial = Tracer()
    targets = [
        Target("repro.sim.runner:enterprise_floor", "topology"),
        Target("repro.sim.runner:run_policy", "policy",
               name_of=lambda args, kwargs: "policy." + str(
                   args[1] if len(args) > 1 else kwargs["policy"])),
        Target("repro.sim.runner:solve_wolt", "solve"),
        Target("repro.core.wolt:phase1_utilities", "phase1"),
        Target("repro.core.wolt:solve_phase1", "phase1"),
        Target("repro.core.wolt:solve_phase2", "phase2"),
    ]
    with patched(serial, targets), count_engine_calls() as stats:
        traced_round = serial.wrap("epoch", sweep.run_round)
        alone, _ = sweep.run_rounds(0.0, n, n, None,
                                    round_fn=traced_round)
    for label, rounds in (("traced pooled", pooled), ("serial", alone)):
        if not _same_trials(base, rounds):
            check.fail(max(sum(len(r) for r in base), 1),
                       f"{label} replay decided differently from the "
                       "untraced pooled run")
    policies = ["policy." + p for p in POLICIES]
    kernel = serial.total("topology", *policies)
    dispatch_wall = parent.total("dispatch")
    solve_us = [d * 1e6 for d in serial.durations("solve")]
    engine = _engine_dict(stats)
    zero = ("ingest.load_s", "ingest.records_per_s", "ingest.rejected",
            "telemetry.observe_s", "health.observe_s",
            "health.quarantined", "split.busy_s", "split.calls",
            "split.segments", "split.unchanged_mask_share",
            "shards.tiny_share", "solve.unchanged_share",
            "compose.evaluate_s", "guard.busy_s", "guard.repairs",
            "directives.sub1mbps_share", "journal.append_s",
            "journal.bytes_per_epoch")
    metrics: Dict[str, float] = {name: 0.0 for name in zero}
    metrics.update({
        "dispatch.wall_s": dispatch_wall / n,
        "dispatch.items": items[0] / n,
        "dispatch.efficiency": _share(kernel, WORKERS * dispatch_wall),
        "solve.calls": serial.count("solve") / n,
        "solve.busy_s": serial.total("solve") / n,
        "solve.p50_us": percentile(solve_us, 50),
        "solve.p99_us": percentile(solve_us, 99),
        "phase1.busy_s": serial.total("phase1") / n,
        "phase2.busy_s": serial.total("phase2") / n,
        "engine.scalar_calls": engine["scalar_calls"] / n,
        "engine.batch_rows": engine["batch_rows"] / n,
        "engine.delta_moves": engine["delta_moves"] / n,
        "service.self_s": parent.self_times().get("epoch", 0.0) / n,
        "topology.busy_s": serial.total("topology") / n,
        "policy.wolt_s": serial.total("policy.wolt") / n,
        "policy.greedy_s": serial.total("policy.greedy") / n,
        "policy.rssi_s": serial.total("policy.rssi") / n,
        "trace.overhead": _share(sum(pooled_walls[1:]),
                                 sum(base_walls[1:])),
    })
    tables = ([f"spans, traced pooled pass ({n} rounds, per round):"]
              + parent.table(n)
              + [f"spans, serial pass ({n} rounds, per round):"]
              + serial.table(n))
    return Outcome(check, metrics, sweep.shape(len(base)), tables)


WORKLOADS = {
    "campus-replay": CampusReplay,
    "tower": Tower,
    "sweep-fig6a": Sweep,
}


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale,
        workdir: Path) -> Outcome:
    """Run one workload; the caller owns ``workdir`` and pool shutdown."""
    workload = WORKLOADS[name](seed, scale, workdir)
    if isinstance(workload, Sweep):
        return (sweep_traced if trace else sweep_untraced)(workload,
                                                           seconds)
    return (serve_traced if trace else serve_untraced)(workload, seconds)
