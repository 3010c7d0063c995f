"""Topology sharding: split a building into independent PLC segments.

``repro.core.partition`` is the *Theorem-1 NP-hardness reduction*
(PARTITION ↔ Problem 1), not a topology splitter — it proves the
problem is hard, it does not decompose instances.  This module is the
actual splitter: it partitions a building's extender set into
**independent PLC segments** via connected components of the
wiring/interference graph, where two extenders are coupled when

* they share a powerline circuit (a *wiring* edge — extenders on one
  circuit contend for the same PLC medium), or
* some user hears both above
  :data:`~repro.core.problem.MIN_USABLE_RATE` (an *interference* edge
  — the association decision for that user couples the two cells).

Why segments must be separate :class:`~repro.core.problem.Scenario`
objects rather than column-slices of one big one: every quantity in a
WOLT solve is coupled through the scenario-wide extender set.  Phase I
utilities are ``min(c_j/|A|, r_ij)`` with the *global* ``|A|``
(Theorem 2), and all three PLC sharing laws in
:mod:`repro.plc.sharing` divide **one** unit of medium time among all
extenders of the scenario.  Merging two electrically separate segments
into one ``Scenario`` therefore models them as sharing a single PLC
medium — a different (and wrong) physical system whose solution
legitimately differs.  The correct whole-fleet solve *is* the
per-segment solve: :func:`solve_segments_reference` runs it serially
in canonical segment order, and the parallel shard dispatch in
:mod:`repro.fleet.service` is property-tested bit-identical to it
(``tests/test_fleet_sharding.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.problem import MIN_USABLE_RATE, UNASSIGNED, Scenario
from ..core.wolt import solve_wolt

__all__ = ["Segment", "coupling_components", "scatter_assignment",
           "solve_segments_reference", "split_segments"]


@dataclass(frozen=True)
class Segment:
    """One independent PLC segment of a building.

    Attributes:
        index: canonical position (segments are ordered by their
            smallest extender index).
        extenders: parent-scenario extender indices, ascending.
        users: parent-scenario user indices, ascending — exactly the
            users whose reachable set lies inside ``extenders`` (a user
            hearing two segments would have merged them).
        scenario: the segment as a standalone scenario with its **own**
            PLC medium; rows/columns follow ``users``/``extenders``.
    """

    index: int
    extenders: Tuple[int, ...]
    users: Tuple[int, ...]
    scenario: Scenario


def _component_labels(mask: np.ndarray,
                      circuits: Optional[Sequence[object]]) -> np.ndarray:
    """Per-extender component label: its component's smallest extender.

    ``mask`` is the boolean ``(n_users, n_extenders)`` reachability
    matrix.  Two extenders share a component when a chain of wiring
    edges (equal circuit labels) and interference edges (a user hearing
    both) joins them; labels are the fixed point of min-label
    propagation over that adjacency.
    """
    n_ext = mask.shape[1]
    if circuits is None:
        # One building, one medium: the graph is a single component.
        return np.zeros(n_ext, dtype=int)
    labels = list(circuits)
    if len(labels) != n_ext:
        raise ValueError(
            f"circuits has {len(labels)} labels for {n_ext} extenders")
    first_of: Dict[object, int] = {}
    circuit = np.array([first_of.setdefault(label, j)
                        for j, label in enumerate(labels)], dtype=int)
    hear = mask.astype(np.int64)
    adjacent = ((hear.T @ hear) > 0) | (circuit[:, None] == circuit)
    comp = np.arange(n_ext)
    while True:
        nxt = np.where(adjacent, comp, n_ext).min(axis=1, initial=n_ext)
        if np.array_equal(nxt, comp):
            return comp
        comp = nxt


def coupling_components(scenario: Scenario,
                        circuits: Optional[Sequence[object]] = None
                        ) -> List[Tuple[int, ...]]:
    """Connected components of the wiring/interference graph.

    Args:
        scenario: the building snapshot.
        circuits: optional per-extender powerline-circuit labels; any
            two extenders with equal labels get a wiring edge.  When
            omitted, every extender shares one circuit (the
            conservative default: one building, one medium), so the
            graph has a single component.

    Returns:
        Extender-index tuples, each sorted ascending, ordered by their
        smallest member.
    """
    comp = _component_labels(scenario.wifi_rates > MIN_USABLE_RATE,
                             circuits)
    return [tuple(np.flatnonzero(comp == c).tolist())
            for c in np.unique(comp).tolist()]


def split_segments(scenario: Scenario,
                   circuits: Optional[Sequence[object]] = None
                   ) -> List[Segment]:
    """Split a building into its independent PLC segments.

    Every user with at least one reachable extender lands in exactly
    one segment (reaching two would have merged them into one
    component); users hearing nothing belong to no segment and are left
    :data:`~repro.core.problem.UNASSIGNED` by
    :func:`scatter_assignment`.

    The reachability mask is computed once; components and the
    user→segment map both derive from it with array operations.  A
    segment spanning the whole building reuses ``scenario`` itself.

    Returns:
        Segments in canonical order (by smallest extender index).
    """
    mask = scenario.wifi_rates > MIN_USABLE_RATE
    comp = _component_labels(mask, circuits)
    segments: List[Segment] = []
    for c, label in enumerate(np.unique(comp).tolist()):
        ext_idx = np.flatnonzero(comp == label)
        # A user's reachable extenders all lie in one component, so
        # hearing any extender of this one places the user here.
        user_idx = np.flatnonzero(mask[:, ext_idx].any(axis=1))
        if mask.shape == (user_idx.size, ext_idx.size):
            # The segment is the whole building (the common case): its
            # scenario is the building's own, no copy needed.
            sub = scenario
        else:
            sub = Scenario(
                wifi_rates=scenario.wifi_rates[np.ix_(user_idx, ext_idx)],
                plc_rates=scenario.plc_rates[ext_idx],
                capacities=(None if scenario.capacities is None
                            else scenario.capacities[ext_idx]),
                user_ids=(None if scenario.user_ids is None
                          else scenario.user_ids[user_idx]))
        segments.append(Segment(index=c,
                                extenders=tuple(ext_idx.tolist()),
                                users=tuple(user_idx.tolist()),
                                scenario=sub))
    return segments


def scatter_assignment(n_users: int, segments: Sequence[Segment],
                       assignments: Sequence[Sequence[int]]
                       ) -> np.ndarray:
    """Scatter per-segment assignments back into parent indices.

    Args:
        n_users: user count of the parent scenario.
        segments: the segments, in any order.
        assignments: one per-segment assignment vector (segment-local
            extender indices or :data:`~repro.core.problem.UNASSIGNED`),
            aligned with ``segments``.

    Returns:
        A length-``n_users`` parent assignment; users outside every
        segment stay :data:`~repro.core.problem.UNASSIGNED`.
    """
    if len(segments) != len(assignments):
        raise ValueError(
            f"{len(assignments)} assignment vectors for "
            f"{len(segments)} segments")
    full = np.full(n_users, UNASSIGNED, dtype=int)
    for segment, local in zip(segments, assignments):
        vec = np.asarray(local, dtype=int).ravel()
        if vec.shape[0] != len(segment.users):
            raise ValueError(
                f"segment {segment.index} assignment covers "
                f"{vec.shape[0]} users, expected {len(segment.users)}")
        ext_map = np.asarray(segment.extenders, dtype=int)
        attached = vec != UNASSIGNED
        parent = np.full(vec.shape[0], UNASSIGNED, dtype=int)
        parent[attached] = ext_map[vec[attached]]
        full[np.asarray(segment.users, dtype=int)] = parent
    return full


def solve_segments_reference(scenario: Scenario,
                             circuits: Optional[Sequence[object]] = None,
                             plc_mode: str = "redistribute"
                             ) -> np.ndarray:
    """The unsharded whole-fleet reference solve of one building.

    Splits into segments and solves each **serially** in canonical
    order with :func:`~repro.core.wolt.solve_wolt` (each segment keeps
    its own PLC medium — see the module docstring for why this, not a
    merged-scenario solve, is the correct whole-building model).  The
    parallel shard dispatch must be bit-identical to this for any
    worker/chunk count; on a single-segment building it degenerates to
    plain ``solve_wolt(scenario)``.
    """
    segments = split_segments(scenario, circuits)
    assignments = [solve_wolt(seg.scenario,
                              plc_mode=plc_mode).assignment
                   for seg in segments]
    return scatter_assignment(scenario.n_users, segments, assignments)
