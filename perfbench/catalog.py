"""The benchmark's metric catalogue: names, units, directions, layer map.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test (``python3 perfbench/run.py --self-test``) fails when the two
disagree, so this module and that file cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Workload name -> one-line reason it exists (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "campus-replay": (
        "1000 tiny shards per epoch: per-shard fixed cost, parent-side "
        "compose, split/observe and journal appends bound the 2-worker "
        "wolt serve epoch"),
    "sweep-fig6a": (
        "run_trials at Fig. 6a scale under the fixed PLC law, 2 workers: "
        "topology, batched Greedy engine and trial dispatch, no fleet "
        "layers"),
}

#: Workloads that run on request but are not in BENCHMARK.json.  The
#: tower's epoch times spread 15-25% (quartile distance over median)
#: across runs on a shared 2-CPU machine, against a 0.25 bound at most.
MANUAL_WORKLOADS: Dict[str, str] = {
    "tower": (
        "ten 15x124 Fig. 6 floors, serial, synthetic telemetry: "
        "solve_wolt Phase-II dominates; bypass workload for campus-only "
        "optimisations"),
}

#: End-to-end metrics: name -> (unit, better).  Printed with --trace 0.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "first_epoch_s": ("s", "lower"),
    "epoch_p50_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "aggregate_mbps": ("Mbps", "higher"),
    "handoffs_per_epoch": ("count", "lower"),
    "wolt_vs_greedy": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics: name -> (unit, better).  Printed with --trace 1.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "ingest.load_s": ("s", "lower"),
    "ingest.records_per_s": ("1/s", "higher"),
    "ingest.rejected": ("count", "lower"),
    "telemetry.observe_s": ("s", "lower"),
    "health.observe_s": ("s", "lower"),
    "health.quarantined": ("count", "lower"),
    "split.busy_s": ("s", "lower"),
    "split.calls": ("count", "lower"),
    "split.segments": ("count", "lower"),
    "split.unchanged_mask_share": ("share", "higher"),
    "shards.tiny_share": ("share", "higher"),
    "dispatch.wall_s": ("s", "lower"),
    "dispatch.items": ("count", "lower"),
    "dispatch.efficiency": ("share", "higher"),
    "solve.calls": ("count", "lower"),
    "solve.busy_s": ("s", "lower"),
    "solve.p50_us": ("us", "lower"),
    "solve.p99_us": ("us", "lower"),
    "solve.unchanged_share": ("share", "higher"),
    "phase1.busy_s": ("s", "lower"),
    "phase2.busy_s": ("s", "lower"),
    "engine.scalar_calls": ("count", "lower"),
    "engine.batch_rows": ("count", "lower"),
    "engine.delta_moves": ("count", "lower"),
    "compose.evaluate_s": ("s", "lower"),
    "guard.busy_s": ("s", "lower"),
    "guard.repairs": ("count", "lower"),
    "service.self_s": ("s", "lower"),
    "directives.sub1mbps_share": ("share", "lower"),
    "journal.append_s": ("s", "lower"),
    "journal.bytes_per_epoch": ("bytes", "lower"),
    "topology.busy_s": ("s", "lower"),
    "policy.wolt_s": ("s", "lower"),
    "policy.greedy_s": ("s", "lower"),
    "policy.rssi_s": ("s", "lower"),
    "failed_share": ("share", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

#: Layer (repro module) -> [(metric, the end-to-end metric and workload
#: it should move)].  Written down before measuring, so a later claim
#: that helps one layer can cite where the gain must appear.
LAYER_MAP: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "fleet.ingest": (
        ("ingest.load_s", "setup_s on campus-replay"),
        ("ingest.records_per_s", "setup_s on campus-replay"),
        ("ingest.rejected", "setup_s on campus-replay"),
        ("telemetry.observe_s",
         "epoch_p50_s on campus-replay (replay lookup; the manual tower "
         "draws synthetic telemetry instead)"),
    ),
    "core.health": (
        ("health.observe_s", "epoch_p50_s on campus-replay"),
        ("health.quarantined", "epoch_p50_s on campus-replay"),
    ),
    "fleet.sharding": (
        ("split.busy_s", "epoch_p50_s on campus-replay; none on "
                         "sweep-fig6a"),
        ("split.calls", "epoch_p50_s on campus-replay"),
        ("split.segments", "epoch_p50_s on campus-replay"),
        ("split.unchanged_mask_share", "epoch_p50_s on campus-replay"),
        ("shards.tiny_share", "epoch_p50_s on campus-replay"),
    ),
    "sim.dispatch": (
        ("dispatch.wall_s",
         "epoch_p50_s on campus-replay; trials_per_s on sweep-fig6a"),
        ("dispatch.items", "epoch_p50_s on campus-replay"),
        ("dispatch.efficiency",
         "epoch_p50_s on campus-replay; trials_per_s on sweep-fig6a"),
    ),
    "core.wolt/core.phase1/core.phase2": (
        ("solve.calls", "epoch_p50_s on campus-replay"),
        ("solve.busy_s", "trials_per_s on sweep-fig6a; epoch_p50_s on "
                         "campus-replay"),
        ("solve.p50_us", "epoch_p50_s on campus-replay "
                         "(per-shard fixed cost)"),
        ("solve.p99_us", "trials_per_s on sweep-fig6a"),
        ("solve.unchanged_share", "epoch_p50_s on campus-replay"),
        ("phase1.busy_s", "first_epoch_s on campus-replay; trials_per_s "
                          "on sweep-fig6a"),
        ("phase2.busy_s", "trials_per_s on sweep-fig6a; epoch_p50_s on "
                          "campus-replay"),
    ),
    "net.engine": (
        ("engine.scalar_calls",
         "first_epoch_s/epoch_p50_s on campus-replay"),
        ("engine.batch_rows", "trials_per_s on sweep-fig6a (Greedy)"),
        ("engine.delta_moves", "trials_per_s on sweep-fig6a; epoch_p50_s "
                               "on campus-replay"),
        ("compose.evaluate_s",
         "first_epoch_s/epoch_p50_s on campus-replay"),
    ),
    "core.guard": (
        ("guard.busy_s", "aggregate_mbps/handoffs_per_epoch"),
        ("guard.repairs", "aggregate_mbps/handoffs_per_epoch"),
    ),
    "fleet.service": (
        ("service.self_s",
         "epoch_p50_s on campus-replay (the serial section)"),
        ("directives.sub1mbps_share", "handoffs_per_epoch"),
    ),
    "sim.checkpoint": (
        ("journal.append_s", "epoch_p50_s on campus-replay"),
        ("journal.bytes_per_epoch", "epoch_p50_s on campus-replay"),
    ),
    "net.topology/sim.runner/core.baselines": (
        ("topology.busy_s",
         "trials_per_s on sweep-fig6a; setup_s on campus-replay"),
        ("policy.wolt_s", "trials_per_s on sweep-fig6a"),
        ("policy.greedy_s", "trials_per_s on sweep-fig6a"),
        ("policy.rssi_s", "trials_per_s on sweep-fig6a"),
    ),
    "all": (
        ("failed_share", "every workload (must stay 0)"),
        ("trace.overhead", "none: cost of the traced run itself"),
    ),
}
