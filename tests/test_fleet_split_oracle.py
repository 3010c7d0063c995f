"""Differential wall for the mask-based segment split.

:func:`repro.fleet.sharding.split_segments` derives components and the
user→segment map from one boolean reachability mask with array
operations.  This file keeps the per-user union-find loops it replaced
as a reference oracle and checks, over random masks and circuit labels,
that both produce the same segments field by field with bitwise-equal
sub-scenario arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Scenario
from repro.fleet.sharding import (Segment, coupling_components,
                                  split_segments)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self._size = [1] * n

    def find(self, j: int) -> int:
        parent = self._parent
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]


def coupling_components_oracle(scenario: Scenario,
                               circuits: Optional[Sequence[object]] = None
                               ) -> List[Tuple[int, ...]]:
    """Reference: union-find over circuits plus one pass per user."""
    n_ext = scenario.n_extenders
    uf = _UnionFind(n_ext)
    if circuits is None:
        for j in range(1, n_ext):
            uf.union(0, j)
    else:
        labels = list(circuits)
        if len(labels) != n_ext:
            raise ValueError(
                f"circuits has {len(labels)} labels for {n_ext} "
                "extenders")
        first_of: Dict[object, int] = {}
        for j, label in enumerate(labels):
            if label in first_of:
                uf.union(first_of[label], j)
            else:
                first_of[label] = j
    for user in range(scenario.n_users):
        reach = scenario.reachable(user)
        for j in reach[1:]:
            uf.union(int(reach[0]), int(j))
    groups: Dict[int, List[int]] = {}
    for j in range(n_ext):
        groups.setdefault(uf.find(j), []).append(j)
    return sorted((tuple(sorted(g)) for g in groups.values()),
                  key=lambda g: g[0])


def split_segments_oracle(scenario: Scenario,
                          circuits: Optional[Sequence[object]] = None
                          ) -> List[Segment]:
    """Reference: a second per-user pass maps users to components."""
    components = coupling_components_oracle(scenario, circuits)
    ext_to_comp = {j: c for c, comp in enumerate(components)
                   for j in comp}
    comp_users: List[List[int]] = [[] for _ in components]
    for user in range(scenario.n_users):
        reach = scenario.reachable(user)
        if reach.size:
            comp_users[ext_to_comp[int(reach[0])]].append(user)
    segments: List[Segment] = []
    for c, extenders in enumerate(components):
        users = comp_users[c]
        ext_idx = np.asarray(extenders, dtype=int)
        user_idx = np.asarray(users, dtype=int)
        wifi = scenario.wifi_rates[np.ix_(user_idx, ext_idx)]
        caps = (None if scenario.capacities is None
                else scenario.capacities[ext_idx])
        ids = (None if scenario.user_ids is None
               else scenario.user_ids[user_idx])
        sub = Scenario(wifi_rates=wifi,
                       plc_rates=scenario.plc_rates[ext_idx],
                       capacities=caps, user_ids=ids)
        segments.append(Segment(index=c, extenders=tuple(extenders),
                                users=tuple(users), scenario=sub))
    return segments


def _same_array(got: Optional[np.ndarray],
                want: Optional[np.ndarray]) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def assert_same_segments(got: List[Segment], want: List[Segment]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.index == w.index
        assert g.extenders == w.extenders
        assert g.users == w.users
        assert all(type(j) is int for j in g.extenders + g.users)
        for field in ("wifi_rates", "plc_rates", "capacities",
                      "user_ids"):
            assert _same_array(getattr(g.scenario, field),
                               getattr(w.scenario, field)), field


def _scenario(rng: np.random.Generator, n_users: int, n_ext: int,
              hear_prob: float, extras: bool) -> Scenario:
    """Random rates with unreachable entries at and below the usable
    threshold (zero, negative, exactly ``MIN_USABLE_RATE``)."""
    rates = rng.uniform(1.0, 144.0, size=(n_users, n_ext))
    dead = rng.choice([0.0, -3.0, 1e-9], size=(n_users, n_ext))
    wifi = np.where(rng.random((n_users, n_ext)) < hear_prob, rates, dead)
    plc = rng.uniform(20.0, 200.0, size=n_ext)
    caps = rng.integers(1, 6, size=n_ext) if extras else None
    ids = np.arange(100, 100 + n_users) if extras else None
    return Scenario(wifi_rates=wifi, plc_rates=plc, capacities=caps,
                    user_ids=ids)


def _circuits(rng: np.random.Generator, n_ext: int, kind: int):
    if kind == 0:
        return None
    alphabet = ["a", "b", "c", 0, 1][:kind]
    return [alphabet[int(k)] for k in rng.integers(len(alphabet),
                                                   size=n_ext)]


class TestSplitMatchesLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_users=st.integers(0, 12),
           n_ext=st.integers(1, 8),
           hear_prob=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
           kind=st.integers(0, 5),
           extras=st.booleans())
    def test_random_masks_and_circuits(self, seed, n_users, n_ext,
                                       hear_prob, kind, extras):
        rng = np.random.default_rng(seed)
        scenario = _scenario(rng, n_users, n_ext, hear_prob, extras)
        circuits = _circuits(rng, n_ext, kind)
        assert (coupling_components(scenario, circuits)
                == coupling_components_oracle(scenario, circuits))
        assert_same_segments(split_segments(scenario, circuits),
                             split_segments_oracle(scenario, circuits))

    @pytest.mark.parametrize("seed", range(8))
    def test_no_circuits_is_one_segment(self, seed):
        rng = np.random.default_rng(seed)
        scenario = _scenario(rng, 9, 5, 0.3, extras=False)
        got = split_segments(scenario)
        assert len(got) == 1
        assert_same_segments(got, split_segments_oracle(scenario))

    def test_users_hearing_nothing_join_no_segment(self):
        rng = np.random.default_rng(3)
        scenario = _scenario(rng, 10, 4, 0.5, extras=True)
        wifi = scenario.wifi_rates.copy()
        wifi[[1, 4, 7]] = 0.0
        deaf = Scenario(wifi_rates=wifi, plc_rates=scenario.plc_rates,
                        capacities=scenario.capacities,
                        user_ids=scenario.user_ids)
        circuits = ["x", "y", "x", "z"]
        got = split_segments(deaf, circuits)
        placed = {u for segment in got for u in segment.users}
        assert placed.isdisjoint({1, 4, 7})
        assert_same_segments(got, split_segments_oracle(deaf, circuits))

    @pytest.mark.parametrize("circuits", [None, ["a", "b", "a"],
                                          ["a", "b", "c"]])
    def test_every_extender_quarantined(self, circuits):
        # Quarantine zeroes whole columns: nobody hears anything.
        rng = np.random.default_rng(5)
        scenario = _scenario(rng, 6, 3, 1.0, extras=False)
        dark = Scenario(wifi_rates=np.zeros_like(scenario.wifi_rates),
                        plc_rates=scenario.plc_rates)
        got = split_segments(dark, circuits)
        assert all(segment.users == () for segment in got)
        assert_same_segments(got, split_segments_oracle(dark, circuits))

    def test_mismatched_circuits_rejected_like_the_oracle(self):
        rng = np.random.default_rng(6)
        scenario = _scenario(rng, 4, 3, 0.5, extras=False)
        for split in (split_segments, split_segments_oracle):
            with pytest.raises(ValueError, match="labels"):
                split(scenario, ["a"])
