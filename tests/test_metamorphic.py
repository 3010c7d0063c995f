"""Metamorphic property: scaling every link rate scales the answer.

Multiplying every WiFi and PLC rate by ``k`` multiplies every cell's
throughput, every PLC grant and every candidate's score by ``k``, so no
comparison inside a solver changes outcome: the assignment stays the
same and the aggregate scales by ``k``.  With ``k = 2`` every scaled
float is exact, so the property holds with ``==``.  It checks the
production search paths without needing an oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import greedy_assignment
from repro.core.problem import Scenario
from repro.core.wolt import solve_wolt
from repro.net.engine import evaluate

from .conftest import random_scenario

K = 2.0
SEEDS = range(5)
SHAPES = [(8, 3), (12, 4)]
PLC_MODES = ("redistribute", "active", "fixed")


def _pair(seed, n_users, n_ext, reachable_prob):
    rng = np.random.default_rng(seed)
    base = random_scenario(rng, n_users, n_ext,
                           reachable_prob=reachable_prob)
    scaled = Scenario(wifi_rates=K * base.wifi_rates,
                      plc_rates=K * base.plc_rates)
    return base, scaled


@pytest.mark.parametrize("reachable_prob", [1.0, 0.8],
                         ids=["all-hear", "masked"])
@pytest.mark.parametrize("plc_mode", PLC_MODES)
@pytest.mark.parametrize("n_users,n_ext", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
class TestRateScaling:
    def test_solve_wolt(self, seed, n_users, n_ext, plc_mode,
                        reachable_prob):
        base, scaled = _pair(seed, n_users, n_ext, reachable_prob)
        want = solve_wolt(base, plc_mode=plc_mode)
        got = solve_wolt(scaled, plc_mode=plc_mode)
        assert np.array_equal(got.assignment, want.assignment)
        assert got.report.aggregate == K * want.report.aggregate

    def test_greedy_assignment(self, seed, n_users, n_ext, plc_mode,
                               reachable_prob):
        base, scaled = _pair(seed, n_users, n_ext, reachable_prob)
        want = greedy_assignment(base, plc_mode=plc_mode)
        got = greedy_assignment(scaled, plc_mode=plc_mode)
        assert np.array_equal(got, want)
        assert (evaluate(scaled, got, plc_mode=plc_mode).aggregate
                == K * evaluate(base, want, plc_mode=plc_mode).aggregate)
