"""Differential wall for the array-pass telemetry record decoder.

:meth:`repro.fleet.ingest.TelemetryRecord.decode` validates each rate
field with a type scan, one array conversion and one range reduction,
and walks the cells only to name the first offender of a field that
failed.  :func:`tests.oracles.decode_record_reference` checks one cell
at a time.  Over a seeded corpus of signed records with poisoned cells
and broken shapes, both must accept the same records with the same
array bytes, dtype and shape, and reject the rest with the same class,
reason and epoch.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.fleet.ingest import TelemetryRecord, _Reject, _signed_line
from tests.oracles import decode_record_reference

N_RECORDS = 20_000

#: One building per shape, 1-6 users x 1-4 extenders.
SHAPES: Dict[str, Tuple[int, int]] = {
    f"b{u}x{e}": (u, e) for u in range(1, 7) for e in range(1, 5)}

#: Cell values every check of the per-cell reference must see.
POISON: Tuple[Any, ...] = (
    True, False, "12.5", "", None, float("nan"), float("inf"),
    float("-inf"), -3.5, -1, -5e-324, -0.0, 0, 10 ** 400, -(10 ** 400),
    2 ** 63 + 1, 2 ** 64 + 3, 10 ** 308, [1.0], [[2.0]], {"r": 1.0},
    5e-324, 1e-310, 1.7976931348623157e308)


def _clean_cell(rng: random.Random) -> Any:
    roll = rng.random()
    if roll < 0.1:
        return rng.randrange(0, 600)
    if roll < 0.15:
        return 0.0
    return rng.uniform(0.0, 600.0)


def _record(rng: random.Random) -> str:
    name = rng.choice(sorted(SHAPES))
    n_users, n_extenders = SHAPES[name]
    wifi: Any = [[_clean_cell(rng) for _ in range(n_extenders)]
                 for _ in range(n_users)]
    plc: Any = [None if rng.random() < 0.15 else _clean_cell(rng)
                for _ in range(n_extenders)]
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):
        value = rng.choice(POISON)
        if rng.random() < 0.6:
            wifi[rng.randrange(n_users)][rng.randrange(n_extenders)] = value
        else:
            plc[rng.randrange(n_extenders)] = value
    shape_fault = rng.random()
    if shape_fault < 0.02:
        wifi[rng.randrange(n_users)].append(1.0)
    elif shape_fault < 0.04:
        wifi[rng.randrange(n_users)] = rng.choice((7.0, "row", None, {}))
    elif shape_fault < 0.05:
        wifi = wifi[1:] if rng.random() < 0.5 else wifi + [wifi[0]]
    elif shape_fault < 0.06:
        plc = plc[1:] if rng.random() < 0.5 else plc + [1.0]
    elif shape_fault < 0.07:
        wifi, plc = (rng.choice((wifi[0], 3.0, "fast")),
                     rng.choice((plc, None, 2.0)))
    return _signed_line({"kind": "telemetry", "v": 1, "building": name,
                         "epoch": rng.randrange(0, 50), "wifi": wifi,
                         "plc": plc})


def _outcome(decode: Any, raw: str) -> Tuple[Any, ...]:
    try:
        record: TelemetryRecord = decode(raw, SHAPES)
    except _Reject as exc:
        return ("reject", exc.cls, exc.reason, exc.epoch)
    return ("accept", record.building, record.epoch,
            *((a.dtype.str, a.shape, a.tobytes())
              for a in (record.wifi, record.plc)))


def test_array_pass_matches_the_per_cell_reference():
    rng = random.Random(20_261_017)
    rejects: Counter = Counter()
    accepted: List[Tuple[Any, ...]] = []
    for _ in range(N_RECORDS):
        raw = _record(rng)
        got = _outcome(TelemetryRecord.decode, raw)
        assert got == _outcome(decode_record_reference, raw), raw
        if got[0] == "accept":
            accepted.append(got)
        else:
            rejects[got[2]] += 1

    # Vacuousness guards: the corpus reaches every verdict, every
    # shape and dropped probes on the accept side.
    def hits(fragment: str) -> int:
        return sum(n for reason, n in rejects.items() if fragment in reason)

    assert len(accepted) >= N_RECORDS // 5
    for fragment in ("must be a number, got True", "got '12.5'",
                     "got None", "got [", "is non-finite",
                     "is negative", "too large for a float",
                     "matrix for building", "capacities for building"):
        assert hits(fragment) >= 20, (fragment, rejects.most_common(5))
    assert {shape for *_, (_, shape, _) in accepted} == set(
        (e,) for e in range(1, 5))
    assert {wifi[1] for *_, wifi, _ in accepted} == set(SHAPES.values())
    assert sum(np.isnan(np.frombuffer(plc[2])).any()
               for *_, plc in accepted) >= 100
