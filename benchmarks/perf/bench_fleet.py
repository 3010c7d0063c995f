"""Campus fleet benchmark: epoch dispatch and telemetry ingest.

Times one FleetService epoch over the committed 1000-building campus
spec (``benchmarks/perf/fleet_campus.yaml``), serial against 4-worker
shard dispatch, and the ``wolt serve --from`` start-up cost of loading
and validating a recorded 8-epoch stream of the same campus
(``stream_load``).  Writes ``benchmarks/perf/BENCH_fleet.json``:

    PYTHONPATH=src python -m benchmarks.perf.bench_fleet

Every measurement starts from a **fresh** service (epoch 0 every
time) so the timed work is identical; the worker pool is warmed by a
throwaway cold epoch first, exactly like ``bench_engine``'s
run-trials section.  The services share one synthetic telemetry source
whose topologies are built before any timing, so the timed epoch is
observe + dispatch + compose, not topology construction.  The script
also asserts the sharded epoch is bit-identical to the serial one
before writing the JSON — a benchmark of a wrong answer is worthless.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.fleet.ingest import (RecordedTelemetry, SyntheticTelemetry,
                                write_stream)
from repro.fleet.service import FleetService, format_epoch
from repro.fleet.spec import load_fleet_spec
from repro.sim.checkpoint import atomic_write_text
from repro.sim.dispatch import shutdown_warm_pools

OUTPUT = Path(__file__).resolve().parent / "BENCH_fleet.json"
SPEC = Path(__file__).resolve().parent / "fleet_campus.yaml"

WORKERS = 4
REPEATS = 2
#: Recorded epochs in the ``stream_load`` stream (1000 records each).
STREAM_EPOCHS = 8
STREAM_REPEATS = 5


def _epoch_time(spec, workers, source) -> float:
    """Best-of-``REPEATS`` wall time of epoch 0 on a fresh service."""
    best = np.inf
    for _ in range(REPEATS):
        service = FleetService(spec, workers=workers, source=source)
        start = time.perf_counter()
        service.run_epoch()
        best = min(best, time.perf_counter() - start)
    return float(best)


def bench_fleet_epoch() -> dict:
    spec = load_fleet_spec(SPEC)
    # A synthetic source builds each topology on first observation and
    # keeps it; telemetry stays a pure function of (building, epoch).
    source = SyntheticTelemetry(spec)
    for building in range(spec.n_buildings):
        source.observe(building, 0)
    serial_report = FleetService(spec, source=source).run_epoch()
    parallel_report = FleetService(spec, workers=WORKERS,
                                   source=source).run_epoch()
    identical = (format_epoch(serial_report)
                 == format_epoch(parallel_report))
    assert identical, (
        "sharded-parallel epoch diverged from the serial reference; "
        "refusing to benchmark a wrong answer")
    shutdown_warm_pools()
    serial_s = _epoch_time(spec, None, source)
    # Cold run: pays the pool fork; later dispatches reuse the pool.
    cold_service = FleetService(spec, workers=WORKERS, source=source)
    start = time.perf_counter()
    cold_service.run_epoch()
    cold_s = time.perf_counter() - start
    parallel_s = _epoch_time(spec, WORKERS, source)
    shutdown_warm_pools()
    return {
        "n_buildings": spec.n_buildings,
        "n_users": spec.n_users,
        "n_shards": serial_report.n_shards,
        "workers": WORKERS,
        "identical_to_serial": identical,
        "serial_s": serial_s,
        "parallel_cold_s": cold_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
    }


def bench_stream_load() -> dict:
    """Best-of-``STREAM_REPEATS`` ``RecordedTelemetry.load`` of the campus.

    The load parses, checksums and validates every record; it is the
    whole of ``wolt serve --from``'s start-up before the first epoch.
    """
    spec = load_fleet_spec(SPEC)
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "stream.jsonl"
        n_records = write_stream(stream, spec, STREAM_EPOCHS)
        best = np.inf
        for _ in range(STREAM_REPEATS):
            start = time.perf_counter()
            source = RecordedTelemetry.load(stream, spec)
            best = min(best, time.perf_counter() - start)
    assert source.n_rejected == 0, "the clean stream must load clean"
    return {
        "n_buildings": spec.n_buildings,
        "epochs": STREAM_EPOCHS,
        "n_records": n_records,
        "load_s": float(best),
        "records_per_s": n_records / float(best),
    }


def main() -> dict:
    report = {
        "meta": {
            "spec": SPEC.name,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            # Shard-parallel speedup is bounded by this number.
            "cpus": len(os.sched_getaffinity(0)),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                       time.gmtime()),
        },
        "fleet_epoch_serial_vs_sharded": bench_fleet_epoch(),
        "stream_load": bench_stream_load(),
    }
    atomic_write_text(OUTPUT, json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {OUTPUT}")
    return report


if __name__ == "__main__":
    main()
