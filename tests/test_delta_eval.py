"""Differential test wall for delta evaluation.

The PR-6 contract: every incremental scoring path must make the exact
same decisions as the full evaluation it replaces.

* :class:`repro.net.engine.DeltaEvaluator` scores a single-user move by
  recomputing only the two touched cells — the resulting aggregate must
  be **bit-identical** to a full scalar :func:`~repro.net.engine.evaluate`
  of the moved assignment, and within 1e-9 of the batched kernel.
* ``solve_phase2(delta=True)`` maintains the insertion-gains matrix
  incrementally — its final assignment must be bit-identical to the
  full-rebuild batch path and to the scalar reference oracle.
* ``IncrementalWolt(delta=True)`` must apply the exact same moves as
  the batched scoring loop on seeded churn sequences.

All of it is parametrized over topology/demand seeds so the wall covers
a spread of scenarios, not one lucky instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic import IncrementalWolt
from repro.core.phase1 import solve_phase1
from repro.core.phase2 import solve_phase2
from repro.core.problem import UNASSIGNED
from repro.core.wolt import solve_wolt
from repro.net.engine import (DeltaEvaluator, count_engine_calls,
                              evaluate, evaluate_batch)

from .conftest import random_scenario

ATOL = 1e-9

TOPOLOGY_SEEDS = [0, 1, 7, 42, 1337]
PLC_MODES = ("redistribute", "active", "fixed")


def _random_move_sequence(rng, scenario, assignment, n_moves):
    """Yield ``(user, dest)`` candidate moves over reachable extenders."""
    moves = []
    for _ in range(n_moves):
        user = int(rng.integers(scenario.n_users))
        reachable = scenario.reachable(user)
        if rng.random() < 0.1:
            moves.append((user, UNASSIGNED))
        else:
            moves.append((user, int(rng.choice(reachable))))
    return moves


class TestDeltaEvaluatorDifferential:
    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_random_move_sequence_matches_full_evaluate(self, seed,
                                                        plc_mode):
        """Seeded random moves: delta score == scalar evaluate, bitwise."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users=20, n_extenders=6,
                                   reachable_prob=0.8)
        assignment = np.array([int(rng.choice(scenario.reachable(u)))
                               for u in range(scenario.n_users)])
        ev = DeltaEvaluator(scenario, assignment, plc_mode=plc_mode)
        assert ev.aggregate == evaluate(scenario, assignment,
                                        plc_mode=plc_mode).aggregate
        working = assignment.copy()
        for user, dest in _random_move_sequence(rng, scenario,
                                                working, 50):
            moved = working.copy()
            moved[user] = dest
            got = ev.score_move(user, dest)
            want = evaluate(scenario, moved, plc_mode=plc_mode).aggregate
            assert got == want  # bit-identical, not approx
            batched = evaluate_batch(
                scenario, moved[np.newaxis, :],
                plc_mode=plc_mode).aggregates[0]
            assert got == pytest.approx(want, abs=ATOL)
            assert abs(got - float(batched)) <= ATOL
            if rng.random() < 0.5:
                assert ev.commit(user, dest) == want
                working = moved
        # After the whole sequence the incremental cache has zero drift.
        assert ev.reconcile() == 0.0

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_from_batch_seeds_from_cached_report(self, seed):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users=12, n_extenders=4)
        batch = np.vstack([
            [int(rng.choice(scenario.reachable(u)))
             for u in range(scenario.n_users)]
            for _ in range(3)])
        report = evaluate_batch(scenario, batch)
        for b in range(3):
            ev = DeltaEvaluator.from_batch(scenario, report, index=b)
            assert ev.aggregate == evaluate(scenario,
                                            batch[b]).aggregate

    def test_from_batch_rejects_stale_report(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        a = np.zeros(8, dtype=int)
        b = np.ones(8, dtype=int)
        report = evaluate_batch(scenario, a[np.newaxis, :])
        # Forge a report whose wifi rows do not match its assignment.
        forged = evaluate_batch(scenario, b[np.newaxis, :])
        import dataclasses
        stale = dataclasses.replace(
            report, wifi_throughputs=forged.wifi_throughputs)
        with pytest.raises(ValueError, match="stale"):
            DeltaEvaluator.from_batch(scenario, stale, index=0)

    def test_reconcile_detects_cache_corruption(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        ev = DeltaEvaluator(scenario, np.zeros(8, dtype=int))
        ev._wifi[0] += 1.0  # simulate a bookkeeping bug
        with pytest.raises(RuntimeError, match="drift"):
            ev.reconcile()

    def test_score_move_counts_delta_not_scalar(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        ev = DeltaEvaluator(scenario, np.zeros(8, dtype=int))
        with count_engine_calls() as stats:
            ev.score_move(0, 1)
            ev.score_move(1, 2)
        assert stats.delta_moves == 2
        assert stats.scalar_calls == 0
        assert stats.candidates_scored == 2

    def test_report_matches_full_evaluate(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        assignment = np.array([int(rng.choice(scenario.reachable(u)))
                               for u in range(8)])
        ev = DeltaEvaluator(scenario, assignment)
        ev.commit(0, int(scenario.reachable(0)[-1]))
        ref = evaluate(scenario, ev.assignment)
        got = ev.report()
        assert np.array_equal(got.assignment, ref.assignment)
        assert got.aggregate == ref.aggregate


class TestDeltaEvaluatorPartialSeeds:
    """A seed may leave users unassigned, exactly as :func:`evaluate`
    accepts; moves may attach users from UNASSIGNED."""

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_partial_seed_and_attaches_match_full_evaluate(self, seed,
                                                           plc_mode):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users=20, n_extenders=6,
                                   reachable_prob=0.8)
        assignment = np.array([
            UNASSIGNED if rng.random() < 0.4
            else int(rng.choice(scenario.reachable(u)))
            for u in range(scenario.n_users)])
        assignment[0] = UNASSIGNED  # never vacuously complete
        ev = DeltaEvaluator(scenario, assignment, plc_mode=plc_mode)
        assert ev.aggregate == evaluate(scenario, assignment,
                                        plc_mode=plc_mode).aggregate
        working = assignment.copy()
        attaches = 0
        for _ in range(60):
            idle = np.flatnonzero(working == UNASSIGNED)
            if idle.size and rng.random() < 0.5:
                user = int(rng.choice(idle))
            else:
                user = int(rng.integers(scenario.n_users))
            if rng.random() < 0.15:
                dest = UNASSIGNED
            else:
                dest = int(rng.choice(scenario.reachable(user)))
            moved = working.copy()
            moved[user] = dest
            want = evaluate(scenario, moved, plc_mode=plc_mode).aggregate
            assert ev.score_move(user, dest) == want
            attaches += int(working[user] == UNASSIGNED
                            and dest != UNASSIGNED)
            assert ev.commit(user, dest) == want
            working = moved
        assert attaches > 0
        np.testing.assert_array_equal(ev.assignment, working)
        assert ev.reconcile() == 0.0

    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_all_unassigned_seed_attaches_everyone(self, plc_mode, rng):
        """The fleet's epoch 0: nobody attached, then one commit per
        user in user order."""
        scenario = random_scenario(rng, n_users=15, n_extenders=4,
                                   reachable_prob=0.7)
        working = np.full(scenario.n_users, UNASSIGNED, dtype=int)
        ev = DeltaEvaluator(scenario, working, plc_mode=plc_mode)
        assert ev.aggregate == evaluate(scenario, working,
                                        plc_mode=plc_mode).aggregate
        for user in range(scenario.n_users):
            working[user] = int(rng.choice(scenario.reachable(user)))
            got = ev.commit(user, int(working[user]))
            assert got == evaluate(scenario, working,
                                   plc_mode=plc_mode).aggregate
        assert ev.reconcile() == 0.0

    def test_seed_rejects_what_evaluate_rejects(self, rng):
        scenario = random_scenario(rng, n_users=6, n_extenders=3,
                                   reachable_prob=0.5)
        user = int(np.flatnonzero(
            (scenario.wifi_rates == 0.0).any(axis=1))[0])
        bad = np.full(scenario.n_users, UNASSIGNED, dtype=int)
        bad[user] = int(np.flatnonzero(scenario.wifi_rates[user] == 0.0)[0])
        with pytest.raises(ValueError, match="unreachable"):
            evaluate(scenario, bad)
        with pytest.raises(ValueError, match="unreachable"):
            DeltaEvaluator(scenario, bad)

    def test_commit_counts_a_delta_move(self, rng):
        scenario = random_scenario(rng, n_users=8, n_extenders=3)
        ev = DeltaEvaluator(scenario,
                            np.full(8, UNASSIGNED, dtype=int))
        with count_engine_calls() as stats:
            ev.commit(0, 1)
            ev.commit(0, 1)  # no-op: already there
        assert stats.delta_moves == 1
        assert stats.scalar_calls == 0


class TestPhase2DeltaDifferential:
    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("n_users,n_ext", [(10, 3), (24, 6),
                                               (40, 8)])
    def test_delta_insertion_bit_identical(self, seed, n_users, n_ext):
        """Phase-2 assignments identical across delta/batch/scalar."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users, n_ext,
                                   reachable_prob=0.75)
        p1 = solve_phase1(scenario)
        delta = solve_phase2(scenario, p1.assignment, delta=True)
        batch = solve_phase2(scenario, p1.assignment, delta=False)
        scalar = solve_phase2(scenario, p1.assignment, vectorized=False)
        assert np.array_equal(delta.assignment, batch.assignment)
        assert np.array_equal(delta.assignment, scalar.assignment)
        assert delta.objective == batch.objective
        assert delta.iterations == batch.iterations

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_delta_with_capacities_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, 18, 5, capacities=True)
        p1 = solve_phase1(scenario)
        delta = solve_phase2(scenario, p1.assignment, delta=True)
        batch = solve_phase2(scenario, p1.assignment, delta=False)
        assert np.array_equal(delta.assignment, batch.assignment)

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_full_wolt_unchanged_by_delta_default(self, seed):
        """solve_wolt's decisions are the same as the pre-delta code."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, 20, 5, reachable_prob=0.8)
        got = solve_wolt(scenario)
        # The oracle: batch insertion (the pre-PR-6 default path).
        p1 = solve_phase1(scenario)
        oracle = solve_phase2(scenario, p1.assignment, delta=False)
        assert np.array_equal(got.assignment, oracle.assignment)

    def test_unplaceable_user_still_raises(self, rng):
        scenario = random_scenario(rng, 6, 2)
        wifi = scenario.wifi_rates.copy()
        wifi[3, :] = 0.0  # user 3 hears nothing
        from repro.core.problem import Scenario
        dead = Scenario(wifi_rates=wifi, plc_rates=scenario.plc_rates)
        start = np.full(6, UNASSIGNED)
        with pytest.raises(ValueError, match="cannot be attached"):
            solve_phase2(dead, start, delta=True)


class TestWarmStart:
    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_warm_start_from_own_solution_is_fixed_point(self, seed):
        """Re-solving warm from the cold optimum returns it unchanged."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, 20, 5, reachable_prob=0.8)
        p1 = solve_phase1(scenario)
        cold = solve_phase2(scenario, p1.assignment)
        warm = solve_phase2(scenario, p1.assignment,
                            warm_start=cold.assignment)
        assert np.array_equal(warm.assignment, cold.assignment)
        # The incremental cell sums accumulate in a different order on
        # the warm path, so the objective may differ in the last ulp.
        assert warm.objective == pytest.approx(cold.objective, abs=ATOL)

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    def test_warm_start_is_complete_and_competitive(self, seed):
        """Warm-started solve stays a valid, near-cold-quality solution."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, 24, 6, reachable_prob=0.8)
        p1 = solve_phase1(scenario)
        cold = solve_phase2(scenario, p1.assignment)
        # Perturb the cold solution to emulate the previous epoch.
        prev = cold.assignment.copy()
        for user in rng.choice(scenario.n_users, size=5, replace=False):
            prev[user] = int(rng.choice(scenario.reachable(int(user))))
        warm = solve_phase2(scenario, p1.assignment, warm_start=prev)
        assert not np.any(warm.assignment == UNASSIGNED)
        assert warm.objective >= cold.objective * 0.95

    def test_warm_start_ignores_stale_extenders(self, rng):
        scenario = random_scenario(rng, 10, 3, reachable_prob=0.7)
        p1 = solve_phase1(scenario)
        prev = np.full(10, 99)  # out-of-range extender ids
        warm = solve_phase2(scenario, p1.assignment, warm_start=prev)
        cold = solve_phase2(scenario, p1.assignment)
        assert np.array_equal(warm.assignment, cold.assignment)

    def test_warm_start_wrong_length_rejected(self, rng):
        scenario = random_scenario(rng, 10, 3)
        p1 = solve_phase1(scenario)
        with pytest.raises(ValueError, match="warm_start"):
            solve_phase2(scenario, p1.assignment,
                         warm_start=np.zeros(3, dtype=int))

    def test_solve_wolt_threads_warm_start(self, rng):
        scenario = random_scenario(rng, 16, 4, reachable_prob=0.8)
        cold = solve_wolt(scenario)
        warm = solve_wolt(scenario, warm_start=cold.assignment)
        assert not np.any(warm.assignment == UNASSIGNED)


class TestIncrementalWoltDelta:
    @staticmethod
    def _churned_controller(seed, n_ext=4, n_users=14, **kwargs):
        rng = np.random.default_rng(seed)
        plc = rng.uniform(20.0, 200.0, size=n_ext)
        ctl = IncrementalWolt(plc, **kwargs)
        for uid in range(n_users):
            ctl.add_user(uid, rng.uniform(6.5, 144.0, size=n_ext))
        return ctl, rng

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    def test_delta_reconfigure_matches_batched_oracle(self, seed):
        """Identical churn -> identical moves, delta vs batched scoring."""
        a, rng_a = self._churned_controller(seed, delta=True)
        b, rng_b = self._churned_controller(seed, delta=False)
        out_a = a.reconfigure()
        out_b = b.reconfigure()
        assert out_a.moves == out_b.moves
        assert out_a.aggregate_after == pytest.approx(
            out_b.aggregate_after, abs=ATOL)
        # Churn a little and reconfigure again.
        for ctl, rng in ((a, rng_a), (b, rng_b)):
            ctl.remove_user(0)
            ctl.add_user(100, rng.uniform(6.5, 144.0,
                                          size=ctl.plc_rates.size))
        assert a.reconfigure().moves == b.reconfigure().moves

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_delta_respects_hysteresis_and_move_cap(self, seed):
        a, _ = self._churned_controller(seed, delta=True,
                                        min_gain_mbps=2.0, max_moves=2)
        b, _ = self._churned_controller(seed, delta=False,
                                        min_gain_mbps=2.0, max_moves=2)
        out_a, out_b = a.reconfigure(), b.reconfigure()
        assert out_a.moves == out_b.moves
        assert len(out_a.moves) <= 2

    def test_warm_start_seam_reconfigures_validly(self):
        ctl, rng = self._churned_controller(3, warm_start=True)
        first = ctl.reconfigure()
        assert first.aggregate_after >= first.aggregate_before - ATOL
        ctl.add_user(200, rng.uniform(6.5, 144.0,
                                      size=ctl.plc_rates.size))
        second = ctl.reconfigure()
        assert second.aggregate_after >= second.aggregate_before - ATOL
