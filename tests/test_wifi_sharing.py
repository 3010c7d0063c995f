"""Unit and property tests for the 802.11 throughput-fair sharing law."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wifi.sharing import cell_throughputs

from .oracles import anomaly_ratio, cell_throughput, per_user_throughput

positive_rates = st.lists(st.floats(min_value=0.5, max_value=600.0),
                          min_size=1, max_size=20)


class TestCellThroughput:
    def test_single_user_gets_its_rate(self):
        assert cell_throughput([54.0]) == pytest.approx(54.0)

    def test_equal_rates_share_perfectly(self):
        assert cell_throughput([54.0, 54.0]) == pytest.approx(54.0)

    def test_empty_cell_is_idle(self):
        assert cell_throughput([]) == 0.0

    def test_fig2a_performance_anomaly(self):
        """A slow joiner drags the whole cell down (Heusse et al.)."""
        fast_alone = cell_throughput([54.0])
        with_slow = cell_throughput([54.0, 6.0])
        assert with_slow < fast_alone
        # Each user gets the harmonic-mean-limited equal share.
        per_user = per_user_throughput([54.0, 6.0])
        assert per_user == pytest.approx(1.0 / (1 / 54 + 1 / 6))
        assert per_user < 6.0  # even below the slow user's own rate? no:
        # 1/(1/54+1/6) = 5.4 < 6 — the fast user is dragged under the slow
        # user's PHY rate, the signature of the anomaly.

    def test_anomaly_worsens_with_distance(self):
        """Moving user 2 further (L1 -> L2 -> L3) hurts both users."""
        shares = [per_user_throughput([54.0, slow])
                  for slow in (54.0, 18.0, 6.0)]
        assert shares[0] > shares[1] > shares[2]

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ValueError):
            cell_throughput([54.0, 0.0])
        with pytest.raises(ValueError):
            cell_throughput([-5.0])

    @given(positive_rates)
    @settings(max_examples=200)
    def test_between_min_and_max_rate(self, rates):
        t = cell_throughput(rates)
        assert min(rates) - 1e-9 <= t <= max(rates) + 1e-9

    @given(positive_rates)
    @settings(max_examples=200)
    def test_equals_count_over_total_airtime(self, rates):
        """Eq. (1) literally."""
        t = cell_throughput(rates)
        expected = len(rates) / sum(1.0 / r for r in rates)
        assert t == pytest.approx(expected)

    @given(positive_rates, st.floats(min_value=0.5, max_value=600.0))
    @settings(max_examples=200)
    def test_adding_below_average_user_lemma1(self, rates, new_rate):
        """Lemma 1: joining with 1/r <= avg(1/r) never lowers T_WiFi."""
        inv_avg = np.mean([1.0 / r for r in rates])
        before = cell_throughput(rates)
        after = cell_throughput(rates + [new_rate])
        if 1.0 / new_rate <= inv_avg:
            assert after >= before - 1e-9
        else:
            assert after <= before + 1e-9

    @given(positive_rates)
    @settings(max_examples=100)
    def test_per_user_share_is_equal_split(self, rates):
        assert per_user_throughput(rates) == pytest.approx(
            cell_throughput(rates) / len(rates))


class TestCellThroughputs:
    def test_vectorized_matches_scalar(self):
        wifi = np.array([[50.0, 20.0], [30.0, 10.0], [40.0, 60.0]])
        assign = [0, 0, 1]
        out = cell_throughputs(wifi, assign, 2)
        assert out[0] == pytest.approx(cell_throughput([50.0, 30.0]))
        assert out[1] == pytest.approx(cell_throughput([60.0]))

    def test_unassigned_users_ignored(self):
        wifi = np.array([[50.0], [30.0]])
        out = cell_throughputs(wifi, [-1, 0], 1)
        assert out[0] == pytest.approx(30.0)

    def test_empty_extender_is_zero(self):
        wifi = np.array([[50.0, 20.0]])
        out = cell_throughputs(wifi, [0], 2)
        assert out[1] == 0.0

    def test_zero_rate_assignment_rejected(self):
        wifi = np.array([[0.0, 20.0]])
        with pytest.raises(ValueError):
            cell_throughputs(wifi, [0], 2)

    def test_length_mismatch_rejected(self):
        wifi = np.array([[50.0]])
        with pytest.raises(ValueError):
            cell_throughputs(wifi, [0, 0], 1)


class TestAnomalyRatio:
    def test_equal_rates_halve(self):
        assert anomaly_ratio(54.0, 54.0) == pytest.approx(0.5)

    def test_slow_peer_dominates(self):
        assert anomaly_ratio(54.0, 6.0) == pytest.approx(
            (1.0 / (1 / 54 + 1 / 6)) / 54.0)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            anomaly_ratio(0.0, 6.0)
        with pytest.raises(ValueError):
            anomaly_ratio(54.0, -1.0)

    @given(st.floats(min_value=0.5, max_value=600.0),
           st.floats(min_value=0.5, max_value=600.0))
    @settings(max_examples=100)
    def test_ratio_bounded(self, fast, slow):
        ratio = anomaly_ratio(fast, slow)
        assert 0.0 < ratio <= 0.5 + 1e-9 or slow > fast
        assert ratio <= 1.0
