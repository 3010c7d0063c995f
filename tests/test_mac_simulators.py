"""Tests for the slot-level MAC simulators (802.11 DCF and IEEE 1901).

These validate that the analytic sharing laws the WOLT model relies on
*emerge* from protocol behaviour instead of being assumed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.plc.mac import Ieee1901CsmaSimulator, TdmaScheduler
from repro.wifi.mac import DcfParameters, DcfSimulator

from .oracles import cell_throughput


class TestDcfSimulator:
    def test_single_station_near_phy_rate(self):
        sim = DcfSimulator([130.0], rng=np.random.default_rng(0))
        result = sim.run(2e6)
        # Alone, a station gets its PHY rate minus small MAC overhead.
        assert 0.85 * 130.0 <= result.aggregate_mbps <= 130.0
        assert result.collisions == 0

    def test_throughput_fair_sharing_emerges(self):
        """Stations at very different rates get equal throughput."""
        sim = DcfSimulator([130.0, 13.0], rng=np.random.default_rng(1))
        result = sim.run(5e6)
        t_fast, t_slow = result.throughputs_mbps
        assert t_fast == pytest.approx(t_slow, rel=0.1)

    def test_performance_anomaly_emerges(self):
        """One slow peer drags a fast station far below half rate."""
        rng = np.random.default_rng(2)
        alone = DcfSimulator([130.0], rng=rng).run(2e6).aggregate_mbps
        with_slow = DcfSimulator([130.0, 13.0], rng=rng).run(5e6)
        assert with_slow.throughputs_mbps[0] < 0.25 * alone

    def test_aggregate_tracks_eq1_shape(self):
        """Within ~25% of Eq. (1) (CSMA overhead costs the rest)."""
        rng = np.random.default_rng(3)
        for rates in ([130.0, 52.0], [117.0, 26.0, 13.0]):
            result = DcfSimulator(rates, rng=rng).run(5e6)
            expected = cell_throughput(rates)
            assert result.aggregate_mbps == pytest.approx(expected,
                                                          rel=0.25)

    def test_collisions_increase_with_stations(self):
        rng = np.random.default_rng(4)
        few = DcfSimulator([65.0] * 2, rng=rng).run(3e6)
        many = DcfSimulator([65.0] * 8, rng=rng).run(3e6)
        assert many.collisions > few.collisions

    def test_equal_frame_counts(self):
        rng = np.random.default_rng(5)
        result = DcfSimulator([130.0, 65.0, 26.0], rng=rng).run(5e6)
        frames = result.frames_delivered
        assert frames.max() <= 1.2 * frames.min() + 5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DcfSimulator([])
        with pytest.raises(ValueError):
            DcfSimulator([0.0])
        with pytest.raises(ValueError):
            DcfSimulator([10.0]).run(0.0)
        with pytest.raises(ValueError):
            DcfParameters().frame_airtime_us(0.0)


class TestIeee1901Simulator:
    def test_single_extender_gets_most_airtime(self):
        sim = Ieee1901CsmaSimulator([100.0],
                                    rng=np.random.default_rng(0))
        result = sim.run(2e6)
        assert result.throughputs_mbps[0] == pytest.approx(
            100.0 * (2500.0 / 2600.0), rel=0.1)
        assert result.collisions == 0

    def test_time_fair_sharing_emerges(self):
        """Airtime equalizes regardless of PHY rate differences."""
        rng = np.random.default_rng(1)
        result = Ieee1901CsmaSimulator([60.0, 160.0], rng=rng).run(3e7)
        assert result.airtime_shares[0] == pytest.approx(0.5, abs=0.05)
        # Throughputs therefore scale with the PHY rates.
        ratio = result.throughputs_mbps[1] / result.throughputs_mbps[0]
        assert ratio == pytest.approx(160.0 / 60.0, rel=0.2)

    def test_one_over_k_scaling(self):
        """Fig. 2c: per-link throughput scales as ~1/k."""
        rng = np.random.default_rng(2)
        rates = [60.0, 90.0, 120.0, 160.0]
        solo = Ieee1901CsmaSimulator(rates[:1], rng=rng).run(
            5e6).throughputs_mbps[0]
        four = Ieee1901CsmaSimulator(rates, rng=rng).run(3e7)
        assert four.throughputs_mbps[0] == pytest.approx(solo / 4,
                                                         rel=0.3)

    def test_deferral_counter_reduces_collisions(self):
        """1901's DC discipline collides less than naive CSMA would;
        collision fraction stays in single digits."""
        rng = np.random.default_rng(3)
        result = Ieee1901CsmaSimulator([100.0] * 4, rng=rng).run(1e7)
        busy_events = result.simulated_time_us / 2600.0
        assert result.collisions / busy_events < 0.15

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Ieee1901CsmaSimulator([])
        with pytest.raises(ValueError):
            Ieee1901CsmaSimulator([-1.0])
        with pytest.raises(ValueError):
            Ieee1901CsmaSimulator([10.0]).run(-5.0)


class TestTdmaScheduler:
    def test_equal_weights_match_eq2(self):
        sched = TdmaScheduler([60.0, 90.0, 120.0])
        out = sched.throughputs()
        assert out == pytest.approx([20.0, 30.0, 40.0])

    def test_idle_extender_slots_reused(self):
        sched = TdmaScheduler([60.0, 90.0])
        out = sched.throughputs(active=[True, False])
        assert out == pytest.approx([60.0, 0.0])

    def test_weighted_qos(self):
        sched = TdmaScheduler([100.0, 100.0], weights=[3.0, 1.0])
        out = sched.throughputs()
        assert out == pytest.approx([75.0, 25.0])

    def test_all_idle(self):
        sched = TdmaScheduler([60.0])
        assert sched.throughputs(active=[False]) == pytest.approx([0.0])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            TdmaScheduler([])
        with pytest.raises(ValueError):
            TdmaScheduler([-1.0])
        with pytest.raises(ValueError):
            TdmaScheduler([10.0], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            TdmaScheduler([10.0], weights=[0.0])
        with pytest.raises(ValueError):
            TdmaScheduler([10.0, 20.0]).throughputs(active=[True])
