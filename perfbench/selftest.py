"""The benchmark's own self-test (``python3 perfbench/run.py --self-test``).

1. ``BENCHMARK.json`` names exactly the workloads and metrics of
   ``catalog.py``, with the same units and directions.
2. Every workload, untraced and traced, runs briefly at the reduced
   ``--smoke`` scale and prints every named metric with its unit and
   direction, and a final JSON line of the agreed shape.
3. The correctness checks reject deliberately corrupted results: one
   user moved to an extender it cannot hear, and a misreported
   aggregate, for the service and for the sweep.
4. Without the program's sources beside it the benchmark exits
   non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import List

from catalog import END_TO_END, MANUAL_WORKLOADS, PER_LAYER, WORKLOADS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_manifest(root: Path) -> List[str]:
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    errors = []
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(WORKLOADS):
        errors.append(f"workloads {names} != {list(WORKLOADS)}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"])
                  for m in manifest[key]}
        if listed != table:
            errors.append(f"{key} in BENCHMARK.json differs from catalog")
    return errors


def check_output(script: Path, workload: str, trace: int) -> List[str]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=script.parent.parent, capture_output=True, text=True,
        timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != RESULT_KEYS or not result["correct"]:
        errors.append(f"{where}: bad result keys or verdict: {result}")
    catalog = PER_LAYER if trace else END_TO_END
    for name, (unit, better) in catalog.items():
        metric = result["metrics"].get(name)
        if metric is None or metric.get("unit") != unit:
            errors.append(f"{where}: {name} missing or wrong unit")
        table = [line for line in lines
                 if line.split()[:2] == ["metric", name]]
        if not (table and unit in table[0].split()
                and f"({better} is better)" in table[0]):
            errors.append(f"{where}: {name} lacks its unit/direction line")
    if set(result["metrics"]) != set(catalog):
        errors.append(f"{where}: unexpected metric set")
    return errors


def check_teeth(workdir: Path) -> List[str]:
    """Corrupt one result at a time; every corruption must be caught."""
    import checks
    import workloads
    from repro.sim.runner import TrialResult, run_trials

    errors = []
    tower = workloads.Tower(7, workloads.SMOKE, workdir)
    tower.prepare()
    service, _ = tower.open(None)
    reports, _ = workloads.run_epochs(service, 0.0, 2, 2)
    service.close()
    if not checks.check_serve(tower.spec, tower.raw, reports).correct:
        errors.append("serve check rejects a clean run")
    checker = checks.ServeChecker(tower.spec, tower.raw)
    checker.check_epoch(reports[0])
    epoch0 = reports[0]
    for b, scenario in enumerate(checker.scenarios):
        swap = checks.unreachable_swap(scenario, checker.assignments[b])
        if swap is None:
            continue
        user, deaf = swap
        entry = epoch0.buildings[b]
        moved = tuple(replace(d, new_extender=deaf) if d.user == user else d
                      for d in entry.directives)
        corrupt = {
            "unreachable extender": replace(entry, directives=moved),
            "misreported aggregate": replace(
                entry, aggregate_mbps=entry.aggregate_mbps + 1.0),
        }
        for label, bad in corrupt.items():
            buildings = list(epoch0.buildings)
            buildings[b] = bad
            forged = replace(epoch0, buildings=tuple(buildings))
            verdict = checks.check_serve(tower.spec, tower.raw,
                                         [forged] + reports[1:])
            if verdict.correct or verdict.failed < 1:
                errors.append(f"serve check accepted a {label}")
        break
    else:
        errors.append("no user with an unreachable extender to corrupt")

    trials = list(run_trials(2, workloads.SWEEP_EXTENDERS,
                             workloads.SWEEP_USERS,
                             policies=workloads.POLICIES, seed=11,
                             plc_mode=workloads.SWEEP_PLC_MODE))
    mode = workloads.SWEEP_PLC_MODE
    if not checks.check_trials(trials, 2, mode).correct:
        errors.append("sweep check rejects clean trials")
    trial = trials[0]
    wolt = trial.outcomes["wolt"]
    swap = checks.unreachable_swap(trial.scenario, wolt.assignment)
    if swap is None:
        errors.append("no sweep user with an unreachable extender")
    else:
        user, deaf = swap
        assignment = wolt.assignment.copy()
        assignment[user] = deaf
        for label, outcome in (
                ("unreachable extender", replace(wolt,
                                                 assignment=assignment)),
                ("misreported aggregate", replace(
                    wolt, aggregate_throughput=wolt.aggregate_throughput
                    + 1.0))):
            forged = TrialResult(scenario=trial.scenario,
                                 outcomes={**trial.outcomes,
                                           "wolt": outcome})
            if checks.check_trials([forged, trials[1]], 2, mode).correct:
                errors.append(f"sweep check accepted a {label}")
    if checks.check_trials(trials[:1], 2, mode).correct:
        errors.append("sweep check accepted a missing trial")
    return errors


def check_bare(script: Path, workdir: Path) -> List[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    root = script.parent.parent
    bare = workdir / "bare"
    shutil.copytree(script.parent, bare / script.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bare / script.parent.name / script.name),
         "--workload", "tower", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["a checkout without the program's sources did not fail"]
    return []


def main(script: Path) -> int:
    root = script.parent.parent
    errors = check_manifest(root)
    for workload in {**WORKLOADS, **MANUAL_WORKLOADS}:
        for trace in (0, 1):
            errors += check_output(script, workload, trace)
            print(f"self-test: {workload} --trace {trace} ran", flush=True)
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        errors += check_teeth(workdir)
        errors += check_bare(script, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for error in errors:
        print(f"self-test: FAIL {error}")
    print("self-test: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0
