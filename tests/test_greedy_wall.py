"""Bitwise wall for the greedy baselines' incremental arrival scorer.

:class:`repro.net.engine.ArrivalScorer` scores one arrival's candidate
extenders by recomputing only the changed cells.  Every score it
returns must be bit for bit the number a tiled
:func:`~repro.net.engine.evaluate_batch` gives for the same rows
(:func:`tests.oracles.tiled_arrival_scores`), and the greedy policies
built on it must return the assignments of
:func:`tests.oracles.greedy_batch_reference` and its selfish twin.

The oracles record each arrival's ``(user, candidates, scores,
choice)``; the wall replays that trace through a production scorer and
compares every arrival's scores with ``tobytes()``, on the Fig. 6
floors (15 extenders x 36 and 124 users), the three PLC laws, index and
random arrival orders, capacities, guarded deaf users and quantized
rates with exact ties.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import (greedy_assignment, greedy_attach_user,
                                  selfish_greedy_assignment)
from repro.core.guard import DecisionGuard
from repro.core.problem import UNASSIGNED, Scenario
from repro.net.engine import ArrivalScorer, count_engine_calls
from repro.net.topology import enterprise_floor
from repro.wifi.phy import MCS_TABLE_80211N_20MHZ
from repro.wifi.sharing import cell_throughputs_batch

from .oracles import (greedy_batch_reference, selfish_greedy_batch_reference,
                      tiled_arrival_scores)

PLC_MODES = ("redistribute", "active", "fixed")
FLOORS = [(36, 0), (36, 1), (36, 2), (124, 0), (124, 1)]


def _floor(n_users, seed):
    return enterprise_floor(15, n_users, np.random.default_rng(seed))


def _with_capacities(scenario, seed):
    """The same rates with tight per-extender capacities (sum >= users)."""
    rng = np.random.default_rng(seed)
    low = max(1, scenario.n_users // scenario.n_extenders)
    caps = rng.integers(low, low + 3, size=scenario.n_extenders)
    return Scenario(wifi_rates=scenario.wifi_rates,
                    plc_rates=scenario.plc_rates, capacities=caps)


def _quantized(seed, n_users=36, n_pairs=6):
    """Twin extenders on 802.11n MCS rates: exact score ties."""
    rng = np.random.default_rng(seed)
    mcs = np.array([rate for _, rate in MCS_TABLE_80211N_20MHZ])
    wifi = mcs[rng.integers(mcs.size, size=(n_users, n_pairs))]
    wifi[rng.random((n_users, n_pairs)) < 0.3] = 0.0
    wifi[np.arange(n_users), rng.integers(n_pairs, size=n_users)] = 65.0
    plc = rng.choice([50.0, 100.0, 150.0], size=n_pairs)
    return Scenario(wifi_rates=np.repeat(wifi, 2, axis=1),
                    plc_rates=np.repeat(plc, 2))


def _replay(scenario, trace, plc_mode, selfish):
    """Score every traced arrival with a production scorer, bitwise."""
    scorer = ArrivalScorer(scenario,
                           np.full(scenario.n_users, UNASSIGNED),
                           plc_mode=plc_mode)
    score = scorer.user_throughputs if selfish else scorer.aggregates
    for user, candidates, want, choice in trace:
        assert scorer.candidates(user) == candidates
        got = score(user, candidates)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
            f"user {user}: {got.tolist()} != {want.tolist()}")
        scorer.commit(user, choice)
    return scorer


def _check_policy(scenario, order, plc_mode, selfish, guard=False):
    trace = []
    oracle = (selfish_greedy_batch_reference if selfish
              else greedy_batch_reference)
    policy = selfish_greedy_assignment if selfish else greedy_assignment
    want = oracle(scenario, order, plc_mode=plc_mode,
                  guard=DecisionGuard() if guard else None, trace=trace)
    assert trace, "vacuous: no arrival was scored"
    _replay(scenario, trace, plc_mode, selfish)
    got = policy(scenario, order, plc_mode=plc_mode,
                 guard=DecisionGuard() if guard else None)
    assert np.array_equal(got, want)
    return trace


class TestArrivalScoresBitwise:
    @pytest.mark.parametrize("n_users,seed", FLOORS)
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    @pytest.mark.parametrize("selfish", [False, True],
                             ids=["greedy", "selfish"])
    def test_fig6_floors_random_order(self, n_users, seed, plc_mode,
                                      selfish):
        floor = _floor(n_users, seed)
        order = np.random.default_rng(seed).permutation(n_users)
        _check_policy(floor, order, plc_mode, selfish)

    @pytest.mark.parametrize("n_users,seed", FLOORS[:2] + FLOORS[3:4])
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_fig6_floors_index_order(self, n_users, seed, plc_mode):
        floor = _floor(n_users, seed)
        for selfish in (False, True):
            _check_policy(floor, None, plc_mode, selfish)

    @pytest.mark.parametrize("n_users,seed", FLOORS)
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_capacities(self, n_users, seed, plc_mode):
        scenario = _with_capacities(_floor(n_users, seed), seed)
        order = np.random.default_rng(seed).permutation(n_users)
        for selfish in (False, True):
            # Guarded: tight capacities on a sparse floor may leave an
            # arrival with no room at all.
            trace = _check_policy(scenario, order, plc_mode, selfish,
                                  guard=True)
            full = [len(c) < int(np.count_nonzero(
                scenario.wifi_rates[u] > 0)) for u, c, _, _ in trace]
            assert any(full), "vacuous: capacity never bound"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_guarded_deaf_users(self, seed, plc_mode):
        floor = _floor(36, seed)
        wifi = floor.wifi_rates.copy()
        wifi[[4, 17, 30], :] = 0.0
        deaf = Scenario(wifi_rates=wifi, plc_rates=floor.plc_rates)
        order = np.random.default_rng(seed).permutation(36)
        for selfish in (False, True):
            _check_policy(deaf, order, plc_mode, selfish, guard=True)
            policy = (selfish_greedy_assignment if selfish
                      else greedy_assignment)
            oracle = (selfish_greedy_batch_reference if selfish
                      else greedy_batch_reference)
            with pytest.raises(ValueError) as got:
                policy(deaf, order, plc_mode=plc_mode)
            with pytest.raises(ValueError) as want:
                oracle(deaf, order, plc_mode=plc_mode)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_quantized_rates_with_exact_ties(self, seed, plc_mode):
        scenario = _quantized(seed)
        order = np.random.default_rng(seed).permutation(scenario.n_users)
        ties = 0
        for selfish in (False, True):
            trace = _check_policy(scenario, order, plc_mode, selfish)
            ties += sum(len(set(s.tolist())) < len(s)
                        for _, _, s, _ in trace)
        assert ties, "vacuous: no arrival saw tied scores"

    def test_repeated_arrival_moves_the_user(self):
        """A user arriving twice is re-scored from its current cell."""
        floor = _floor(36, 3)
        order = list(range(36)) + [5, 0, 35, 5]
        for plc_mode in PLC_MODES:
            for selfish in (False, True):
                _check_policy(floor, order, plc_mode, selfish)


class TestArrivalScorer:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("plc_mode", PLC_MODES)
    def test_partial_seeds_score_like_tiled_batch(self, seed, plc_mode):
        """Any valid seed, arrival attached or not, scores bitwise."""
        rng = np.random.default_rng(seed)
        floor = _floor(36, seed)
        assign = np.array([int(rng.choice(floor.reachable(u)))
                           if rng.random() < 0.6 else UNASSIGNED
                           for u in range(36)])
        for user in rng.permutation(36)[:12].tolist():
            scorer = ArrivalScorer(floor, assign, plc_mode=plc_mode)
            candidates = scorer.candidates(user)
            want_c, want = tiled_arrival_scores(floor, assign, user,
                                                plc_mode)
            assert candidates == want_c
            assert scorer.aggregates(user, candidates).tobytes() \
                == want.tobytes()
            _, want_self = tiled_arrival_scores(floor, assign, user,
                                                plc_mode, selfish=True)
            assert scorer.user_throughputs(user, candidates).tobytes() \
                == want_self.tobytes()
            j = greedy_attach_user(floor, assign, user, plc_mode=plc_mode)
            assert j in candidates

    @pytest.mark.parametrize("seed", range(4))
    def test_commits_keep_the_batch_kernel_bits(self, seed):
        """After any move sequence the WiFi vector is the batch kernel's."""
        rng = np.random.default_rng(seed)
        floor = _floor(36, seed)
        scorer = ArrivalScorer(floor, np.full(36, UNASSIGNED))
        for _ in range(150):
            user = int(rng.integers(36))
            scorer.commit(user, int(rng.choice(floor.reachable(user))))
        want = cell_throughputs_batch(floor.wifi_rates,
                                      scorer.assignment[np.newaxis, :],
                                      floor.n_extenders)[0]
        assert scorer._wifi.tobytes() == want.tobytes()

    def test_one_batch_call_per_scored_arrival(self):
        floor = _floor(36, 0)
        scorer = ArrivalScorer(floor, np.full(36, UNASSIGNED))
        candidates = scorer.candidates(0)
        with count_engine_calls() as stats:
            scorer.aggregates(0, candidates)
        assert (stats.scalar_calls, stats.batch_calls, stats.batch_rows,
                stats.delta_moves) == (0, 1, len(candidates), 0)

    def test_attach_without_room_raises(self):
        scenario = Scenario(wifi_rates=np.array([[30.0, 0.0], [20.0, 0.0]]),
                            plc_rates=np.array([60.0, 60.0]),
                            capacities=np.array([1, 1]))
        with pytest.raises(ValueError, match="user 1 cannot be attached"):
            greedy_attach_user(scenario, [0, UNASSIGNED], 1)

    def test_invalid_seed_rejected(self):
        floor = _floor(36, 0)
        bad = np.full(36, UNASSIGNED)
        bad[3] = 99
        with pytest.raises(ValueError, match="out of range"):
            greedy_attach_user(floor, bad, 0)
        with pytest.raises(ValueError, match="plc_mode"):
            ArrivalScorer(floor, np.full(36, UNASSIGNED), plc_mode="nope")
