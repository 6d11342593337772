"""Pipeline benchmark of the ``repro`` package.

Run from the root of a checkout, one workload per process::

    python3 pipeline_bench/run.py --workload cold_pipeline --seed 1 --seconds 10 --trace 0

Workloads: ``cold_pipeline``, ``model_selection`` and ``serving`` (see
``pipeline_bench/README.md`` for what each measures and the per-layer ->
end-to-end map).  The report lines go first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer ledger with ``--trace 1``.  Exits with 2, printing no
result, when ``src/repro`` is not under the working directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

WORKLOADS = ("cold_pipeline", "model_selection", "serving")
#: Scratch space inside the checkout (registry bundles), removed on exit.
WORK_DIR = ".pipeline_bench_work"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Registry bundles stamp the git commit; keep git's search inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    # One BLAS thread, set before numpy loads.  The matrices are small, and
    # on a 2-core machine with a second busy process, OpenBLAS's default
    # thread per core made the SVM study 4-20x slower; one thread kept it
    # at its speed on an idle machine.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"

    import harness

    import_s = harness.import_seconds(root)
    workload = importlib.import_module(args.workload)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=root / WORK_DIR))
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:     # another run still uses it
            pass

    if args.trace:
        metrics = outcome.per_layer
    else:
        setup_s, unit = outcome.end_to_end["setup_s"]
        outcome.end_to_end["setup_s"] = (import_s + setup_s, unit)
        outcome.end_to_end["peak_rss_mb"] = (harness.peak_rss_mb(), "MB")
        metrics = outcome.end_to_end

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} import_s={import_s:.6f}")
    for note in outcome.notes:
        print(f"  {note}")
    for failure in outcome.failures:
        print(f"  CHECK FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
