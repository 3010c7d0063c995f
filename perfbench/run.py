"""Repository benchmark for the WOLT association service.

Run from the repository root::

    python3 perfbench/run.py --workload campus-replay --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced replay.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment
(``meta``), a metric table with units and directions and, for traced
runs, per-span totals and self times.  The exit code is non-zero when
any output fails its correctness check.

``python3 perfbench/run.py --self-test`` runs every workload briefly
at a reduced scale and checks the output contract and the teeth of the
correctness checks.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the pooled workloads run
# two worker processes beside the parent on two CPUs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from catalog import (END_TO_END, MANUAL_WORKLOADS, PER_LAYER,  # noqa: E402
                     WORKLOADS)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stop_children() -> None:
    """Tear down worker pools and wait for every child to exit."""
    from repro.sim.dispatch import shutdown_warm_pools
    shutdown_warm_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> int:
    import numpy as np

    import workloads

    scale = workloads.SMOKE if smoke else workloads.FULL
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        outcome = workloads.run(name, seed, seconds, trace, scale, workdir)
    finally:
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    catalog = PER_LAYER if trace else END_TO_END
    values: Dict[str, float] = dict(outcome.metrics)
    check = outcome.check
    if trace:
        values["failed_share"] = (check.failed / check.attempted
                                  if check.attempted else 0.0)
    else:
        values["peak_rss_mb"] = _peak_rss_mb()
    missing = sorted(set(catalog) - set(values))
    extra = sorted(set(values) - set(catalog))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"unexpected {extra}")
    meta = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "shape": outcome.shape,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in outcome.tables:
        print(line)
    for metric, (unit, better) in catalog.items():
        print(f"metric {metric:<28} {values[metric]:>16.6f} {unit:<6} "
              f"({better} is better)")
    for problem in check.problems:
        print(f"check failed: {problem}")
    result = {
        "correct": check.correct,
        "attempted": max(int(check.attempted), 1),
        "failed": int(check.failed),
        "metrics": {metric: {"value": float(values[metric]), "unit": unit}
                    for metric, (unit, _) in catalog.items()},
    }
    print(json.dumps(result))
    return 0 if check.correct else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=sorted({**WORKLOADS, **MANUAL_WORKLOADS}))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload scale (self-test only)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the output contract and the checks")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main(Path(__file__))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
