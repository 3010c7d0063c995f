"""Differential wall for delta-scored directive compose.

:class:`repro.fleet.service.FleetService` scores each building's
directives with one :class:`~repro.net.engine.DeltaEvaluator`
committing moves in user order.  This file keeps the scalar chain it
replaced (one full :func:`~repro.net.engine.evaluate` for the baseline
plus one per moved user, users scattered one by one) as a reference
oracle and runs both services side by side on seeded random campuses:
every ``Directive.delta_mbps``, building ``aggregate_mbps`` and
``delta_mbps`` must match bit for bit, and so must the journals.

The runs cover epoch 0 (everyone ``UNASSIGNED``), quarantined
extenders, users whose old extender became unusable, failed shards
(carry-forward) and the open-breaker carry path, each with a guard
that it actually happened.
"""

from __future__ import annotations

import os
import struct
from typing import Any, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core.problem import MIN_USABLE_RATE, UNASSIGNED, Scenario
from repro.fleet.chaos import FleetFaultModel
from repro.fleet.service import (BuildingEpoch, Directive, EpochReport,
                                 FleetService, _BuildingState)
from repro.fleet.sharding import Segment
from repro.fleet.spec import (BuildingSpec, FleetSpec, HealthSettings,
                              TelemetryModel)
from repro.net.engine import count_engine_calls, evaluate
from repro.plc.sharing import PLC_MODES
from repro.sim.dispatch import TIMEOUT_ERROR_TYPE, WorkFailure


class ScalarComposeService(FleetService):
    """The service with the settle/carry/compose path it had before
    delta scoring: per-user scatter, per-user failure carry-forward,
    and a full scalar ``evaluate`` per directive."""

    def _settle_building(self, bstate: _BuildingState,
                         scenario: Scenario,
                         quarantined: Tuple[int, ...],
                         segments: Sequence[Segment],
                         results: Sequence[Any],
                         apply: bool) -> BuildingEpoch:
        old = bstate.assignment
        n_users = old.shape[0]
        new = np.full(n_users, UNASSIGNED, dtype=int)
        shard_failures = 0
        shard_timeouts = 0
        for segment, result in zip(segments, results):
            if isinstance(result, WorkFailure):
                shard_failures += 1
                if result.error_type == TIMEOUT_ERROR_TYPE:
                    shard_timeouts += 1
                if apply and self._store is not None:
                    self._store.append_event(
                        "shard-failure", epoch=self.epoch,
                        building=bstate.name, segment=segment.index,
                        error_type=result.error_type)
                for user in segment.users:
                    kept = int(old[user])
                    if (kept != UNASSIGNED
                            and scenario.wifi_rates[user, kept]
                            > MIN_USABLE_RATE):
                        new[user] = kept
                continue
            local = np.asarray(result, dtype=int).ravel()
            ext_map = np.asarray(segment.extenders, dtype=int)
            for pos, user in enumerate(segment.users):
                if local[pos] != UNASSIGNED:
                    new[user] = ext_map[local[pos]]
        return self._scalar_compose(
            bstate, scenario, quarantined, new,
            n_segments=len(segments), shard_failures=shard_failures,
            shard_timeouts=shard_timeouts, apply=apply)

    def _carry_building(self, bstate: _BuildingState,
                        scenario: Scenario,
                        quarantined: Tuple[int, ...],
                        apply: bool) -> BuildingEpoch:
        old = bstate.assignment
        new = old.copy()
        attached = np.flatnonzero(new != UNASSIGNED)
        if attached.size:
            rates = scenario.wifi_rates[attached, new[attached]]
            new[attached[rates <= MIN_USABLE_RATE]] = UNASSIGNED
        return self._scalar_compose(
            bstate, scenario, quarantined, new, n_segments=0,
            shard_failures=0, shard_timeouts=0, apply=apply)

    def _scalar_compose(self, bstate: _BuildingState,
                        scenario: Scenario,
                        quarantined: Tuple[int, ...],
                        new: np.ndarray, n_segments: int,
                        shard_failures: int, shard_timeouts: int,
                        apply: bool) -> BuildingEpoch:
        old = bstate.assignment
        n_users = old.shape[0]
        new, _ = bstate.guard.repair_assignment(
            scenario, new, source="fleet", require_complete=False)
        reachable_old = old.copy()
        attached = np.flatnonzero(reachable_old != UNASSIGNED)
        if attached.size:
            rates = scenario.wifi_rates[attached,
                                        reachable_old[attached]]
            reachable_old[attached[rates <= MIN_USABLE_RATE]] = \
                UNASSIGNED
        running = evaluate(scenario, reachable_old,
                           plc_mode=self.spec.plc_mode).aggregate
        baseline = running
        working = reachable_old.copy()
        directives: List[Directive] = []
        for user in range(n_users):
            if int(new[user]) == int(old[user]):
                continue
            working[user] = new[user]
            moved = evaluate(  # woltlint: disable=W003 — reference oracle
                scenario, working, plc_mode=self.spec.plc_mode).aggregate
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


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def random_campus(seed: int, plc_mode: str, chaos: bool) -> FleetSpec:
    """A seeded campus of odd-sized buildings, some on several
    circuits, under telemetry dropout (quarantine) and, optionally, a
    shard-fault storm with a hair-trigger circuit breaker."""
    rng = np.random.default_rng(seed)
    buildings = []
    for b in range(8):
        n_ext = int(rng.integers(2, 7))
        circuits = None
        if rng.random() < 0.5:
            circuits = tuple(str(c) for c in
                             rng.choice(["a", "b", "c"], size=n_ext))
        buildings.append(BuildingSpec(name=f"b{b}", n_extenders=n_ext,
                                      n_users=int(rng.integers(3, 15)),
                                      circuits=circuits))
    fault_model = None
    health = HealthSettings()
    if chaos:
        fault_model = FleetFaultModel(blackout_prob=0.1, crash_prob=0.3,
                                      crash_attempts=2, hang_prob=0.1)
        health = HealthSettings(breaker_strikes=1,
                                breaker_probation_epochs=2)
    return FleetSpec(name="oracle", seed=seed, plc_mode=plc_mode,
                     buildings=tuple(buildings),
                     telemetry=TelemetryModel(wifi_jitter=0.05,
                                              plc_jitter=0.1,
                                              dropout=0.3),
                     health=health, chaos=fault_model)


def assert_bitwise_equal(got: EpochReport, want: EpochReport) -> None:
    assert got == want
    for g, w in zip(got.buildings, want.buildings):
        assert _bits(g.aggregate_mbps) == _bits(w.aggregate_mbps)
        assert _bits(g.delta_mbps) == _bits(w.delta_mbps)
        assert ([_bits(d.delta_mbps) for d in g.directives]
                == [_bits(d.delta_mbps) for d in w.directives])
    assert _bits(got.aggregate_mbps) == _bits(want.aggregate_mbps)
    assert _bits(got.delta_mbps) == _bits(want.delta_mbps)


class TestComposeMatchesScalarOracle:
    EPOCHS = 7

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("plc_mode", sorted(PLC_MODES))
    def test_random_campus_under_chaos(self, seed, plc_mode, tmp_path):
        spec = random_campus(seed, plc_mode, chaos=True)
        paths = [os.fspath(tmp_path / name)
                 for name in ("delta.jsonl", "scalar.jsonl")]
        seen = {"epoch0": 0, "quarantined": 0, "unusable_old": 0,
                "failed": 0, "carried": 0}
        with FleetService(spec, journal=paths[0]) as fast, \
                ScalarComposeService(spec, journal=paths[1]) as slow:
            for _ in range(self.EPOCHS):
                got, want = fast.run_epoch(), slow.run_epoch()
                assert_bitwise_equal(got, want)
                for mine, theirs in zip(fast._buildings,
                                        slow._buildings):
                    np.testing.assert_array_equal(mine.assignment,
                                                  theirs.assignment)
                seen["epoch0"] += int(got.epoch == 0
                                      and len(got.directives) > 0)
                for entry in got.buildings:
                    seen["quarantined"] += int(bool(entry.quarantined))
                    seen["failed"] += entry.n_shard_failures
                    seen["carried"] += int(entry.breaker_open
                                           and entry.n_segments == 0)
                    seen["unusable_old"] += sum(
                        1 for d in entry.directives
                        if d.old_extender in entry.quarantined)
        assert all(count > 0 for count in seen.values()), seen
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("plc_mode", sorted(PLC_MODES))
    def test_epoch_zero_from_nobody_attached(self, plc_mode):
        spec = random_campus(5, plc_mode, chaos=False)
        fast, slow = FleetService(spec), ScalarComposeService(spec)
        got, want = fast.run_epoch(), slow.run_epoch()
        assert len(got.directives) == spec.n_users
        assert all(d.old_extender == UNASSIGNED for d in got.directives)
        assert_bitwise_equal(got, want)
        assert_bitwise_equal(fast.run_epoch(), slow.run_epoch())

    def test_compose_makes_no_scalar_evaluate_call(self):
        spec = random_campus(6, "redistribute", chaos=False)
        fast, slow = FleetService(spec), ScalarComposeService(spec)
        fast.run_epoch()
        slow.run_epoch()
        with count_engine_calls() as delta_stats:
            got = fast.run_epoch()
        with count_engine_calls() as scalar_stats:
            want = slow.run_epoch()
        assert_bitwise_equal(got, want)
        n_moves = len(got.directives)
        assert n_moves > 0
        # Shard solves make their own engine calls; compose adds one
        # scalar call per building plus one per directive in the
        # oracle, none in production.
        assert (scalar_stats.scalar_calls - delta_stats.scalar_calls
                == spec.n_buildings + n_moves)
        # Every directive commits one delta move, except a detach of
        # a user whose old extender is already unusable (a no-op).
        commits = delta_stats.delta_moves - scalar_stats.delta_moves
        attaches = sum(1 for d in got.directives
                       if d.new_extender != UNASSIGNED)
        assert attaches <= commits <= n_moves
