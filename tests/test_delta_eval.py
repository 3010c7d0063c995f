"""Differential test wall for delta evaluation.

The PR-6 contract: every incremental scoring path must make the exact
same decisions as the full evaluation it replaces.

* :class:`repro.net.engine.DeltaEvaluator` scores a single-user move by
  recomputing only the two touched cells — the resulting aggregate must
  be **bit-identical** to a full scalar :func:`~repro.net.engine.evaluate`
  of the moved assignment, and within 1e-9 of the batched kernel.
* ``solve_phase2`` maintains the insertion-gains matrix incrementally —
  its final assignment, objective and round count must be bit-identical
  to the scalar reference oracle :func:`tests.oracles.phase2_reference`,
  uncapacitated, capacitated, and guarded with users that hear nothing.
* ``IncrementalWolt`` must apply the exact same moves as the batched
  scoring loop :func:`tests.oracles.reconfigure_reference` on seeded
  churn sequences.

All of it is parametrized over topology/demand seeds so the wall covers
a spread of scenarios, not one lucky instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic import IncrementalWolt
from repro.core.guard import DecisionGuard
from repro.core.phase1 import solve_phase1
from repro.core.phase2 import solve_phase2
from repro.core.problem import UNASSIGNED, Scenario
from repro.core.wolt import solve_wolt
from repro.net.engine import (DeltaEvaluator, count_engine_calls,
                              evaluate, evaluate_batch)
from repro.net.topology import enterprise_floor
from repro.wifi.phy import MCS_TABLE_80211N_20MHZ

from .conftest import random_scenario
from .oracles import phase2_reference, reconfigure_reference

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


def _assert_same_phase2(got, want):
    assert np.array_equal(got.assignment, want.assignment)
    assert got.objective == want.objective
    assert got.iterations == want.iterations


def _deaf_scenario(seed, n_users, n_ext, deaf, capacities=False):
    """A random scenario in which the users ``deaf`` hear nothing."""
    rng = np.random.default_rng(seed)
    base = random_scenario(rng, n_users, n_ext, reachable_prob=0.75,
                           capacities=capacities)
    wifi = base.wifi_rates.copy()
    wifi[list(deaf), :] = 0.0
    return Scenario(wifi_rates=wifi, plc_rates=base.plc_rates,
                    capacities=base.capacities)


def _twin_scenario(seed, n_users, n_pairs, scale=1.0, capacities=False):
    """Extenders in identical pairs, on quantized 802.11n MCS rates.

    Twin extenders hear every user at the same rate and have the same
    PLC rate, so insertion and relocation gains tie exactly.  At
    ``scale`` 2**14 the gains reach ~1e5-1e6 Mbps, where
    ``best + 1e-12`` rounds back to ``best``.
    """
    rng = np.random.default_rng(seed)
    mcs = np.array([rate for _, rate in MCS_TABLE_80211N_20MHZ])
    wifi = mcs[rng.integers(mcs.size, size=(n_users, n_pairs))]
    wifi[rng.random((n_users, n_pairs)) < 0.3] = 0.0
    wifi[np.arange(n_users), rng.integers(n_pairs, size=n_users)] = 65.0
    plc = rng.choice([50.0, 100.0, 150.0], size=n_pairs)
    caps = (rng.integers(n_users // n_pairs, n_users, size=n_pairs)
            if capacities else None)
    return Scenario(wifi_rates=scale * np.repeat(wifi, 2, axis=1),
                    plc_rates=scale * np.repeat(plc, 2),
                    capacities=None if caps is None
                    else np.repeat(caps, 2))


class TestPhase2DeltaDifferential:
    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("n_users,n_ext", [(10, 3), (24, 6),
                                               (40, 8)])
    def test_delta_insertion_bit_identical(self, seed, n_users, n_ext):
        """Phase-2 assignment, objective and rounds equal the oracle's."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users, n_ext,
                                   reachable_prob=0.75)
        p1 = solve_phase1(scenario)
        _assert_same_phase2(solve_phase2(scenario, p1.assignment),
                            phase2_reference(scenario, p1.assignment))

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("n_users,n_ext", [(18, 5), (30, 6)])
    @pytest.mark.parametrize("reachable_prob", [1.0, 0.75])
    def test_delta_with_capacities_bit_identical(self, seed, n_users, n_ext,
                                                 reachable_prob):
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, n_users, n_ext,
                                   reachable_prob=reachable_prob,
                                   capacities=True)
        p1 = solve_phase1(scenario)
        _assert_same_phase2(solve_phase2(scenario, p1.assignment),
                            phase2_reference(scenario, p1.assignment))

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("capacities", [False, True])
    def test_guarded_drop_unplaceable_bit_identical(
            self, seed, capacities):
        """Guarded runs leave deaf users UNASSIGNED exactly as the oracle."""
        deaf = (2, 9)
        scenario = _deaf_scenario(seed, 16, 4, deaf, capacities)
        start = solve_phase1(scenario, guard=DecisionGuard()).assignment
        got = solve_phase2(scenario, start, guard=DecisionGuard())
        want = phase2_reference(scenario, start, guard=DecisionGuard())
        _assert_same_phase2(got, want)
        assert all(got.assignment[u] == UNASSIGNED for u in deaf)
        assert np.count_nonzero(got.assignment == UNASSIGNED) == len(deaf)

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS)
    @pytest.mark.parametrize("n_users", [6, 10, 24])
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 14])
    @pytest.mark.parametrize("capacities", [False, True])
    @pytest.mark.parametrize("cold", [False, True],
                             ids=["phase1-anchors", "no-anchors"])
    def test_exact_ties_bit_identical(self, seed, n_users, scale,
                                      capacities, cold):
        """Twin extenders tie exactly; both paths break ties alike.

        Small cells on quantized rates repeat the same occupancy, so
        relocation gains tie at nonzero values too; at ``scale`` 2**14
        those ties only stay put under the strict ``>``.
        """
        scenario = _twin_scenario(seed, n_users, 3, scale, capacities)
        start = (np.full(n_users, UNASSIGNED) if cold
                 else solve_phase1(scenario).assignment)
        _assert_same_phase2(solve_phase2(scenario, start),
                            phase2_reference(scenario, start))

    @pytest.mark.parametrize("n_users,seed", [(36, 0), (36, 1), (36, 2),
                                              (36, 3), (124, 0)])
    def test_fig6_floors_bit_identical(self, n_users, seed):
        """Fig. 6 floors: hundreds of rejected swaps, each undone in the
        fixed order; the final objective bits see every undo."""
        floor = enterprise_floor(15, n_users, np.random.default_rng(seed))
        p1 = solve_phase1(floor)
        _assert_same_phase2(solve_phase2(floor, p1.assignment),
                            phase2_reference(floor, p1.assignment))

    def test_guarded_insertion_drops_users_left_without_room(self):
        """Capacity, not hearing, leaves a user unplaceable: the guarded
        insertion stops where the oracle's does."""
        wifi = np.array([[50.0, 0.0], [40.0, 0.0], [30.0, 0.0],
                         [20.0, 60.0]])
        scenario = Scenario(wifi_rates=wifi,
                            plc_rates=np.array([100.0, 80.0]),
                            capacities=np.array([2, 1]))
        start = np.full(4, UNASSIGNED)
        got = solve_phase2(scenario, start, guard=DecisionGuard())
        want = phase2_reference(scenario, start, guard=DecisionGuard())
        _assert_same_phase2(got, want)
        assert np.count_nonzero(got.assignment == UNASSIGNED) == 1

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_full_wolt_unchanged_by_delta_default(self, seed):
        """solve_wolt's Phase II makes the scalar oracle's decisions."""
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, 20, 5, reachable_prob=0.8)
        got = solve_wolt(scenario)
        p1 = solve_phase1(scenario)
        oracle = phase2_reference(scenario, p1.assignment)
        assert np.array_equal(got.assignment, oracle.assignment)

    def test_unplaceable_user_still_raises(self, rng):
        dead = _deaf_scenario(0, 6, 2, deaf=(3,))
        start = np.full(6, UNASSIGNED)
        with pytest.raises(ValueError, match="cannot be attached"):
            solve_phase2(dead, start)
        with pytest.raises(ValueError, match="cannot be attached"):
            phase2_reference(dead, start)


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
        a, rng_a = self._churned_controller(seed)
        b, rng_b = self._churned_controller(seed)
        out_a = a.reconfigure()
        out_b = reconfigure_reference(b)
        assert out_a.moves == out_b.moves
        assert out_a.aggregate_after == out_b.aggregate_after
        # Churn a little and reconfigure again.
        for ctl, rng in ((a, rng_a), (b, rng_b)):
            ctl.remove_user(0)
            ctl.add_user(100, rng.uniform(6.5, 144.0,
                                          size=ctl.plc_rates.size))
        assert a.reconfigure().moves == reconfigure_reference(b).moves
        assert a.assignment == b.assignment
        assert a.total_moves == b.total_moves

    @pytest.mark.parametrize("seed", TOPOLOGY_SEEDS[:3])
    def test_delta_respects_hysteresis_and_move_cap(self, seed):
        a, _ = self._churned_controller(seed, min_gain_mbps=2.0,
                                        max_moves=2)
        b, _ = self._churned_controller(seed, min_gain_mbps=2.0,
                                        max_moves=2)
        out_a, out_b = a.reconfigure(), reconfigure_reference(b)
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
