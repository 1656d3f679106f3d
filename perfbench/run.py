"""shtlab benchmark: two closed-loop workloads driven through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload suite-mix --seed 20260810 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (see ``workloads.py``): ``suite-mix`` (single-instance ``verify``
manifests) and ``decomp-stream`` (single- and multi-level ``cz`` items).
Each run sets up
``SETUP_RUNS`` times in fresh processes and reports the median set-up time,
then measures in a fresh process of its own, so memory, set-up and the
per-space ball-table caches never carry over between workloads.  Every
process runs with ``BLAS_THREADS`` BLAS/OpenMP threads.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of one traced pass (see ``tracing.py``).  Every item's
output is checked (see ``checks.py``); the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``attempted`` and ``failed`` count distinct items, so they depend on the seed
alone and not on how many passes fit in ``--seconds``.

``--size tiny`` runs a few items with n <= 8, for the smoke test.
``--write-reference`` stores the outputs of this seed as the reference that
later runs at the same seed are compared against.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("suite-mix", "decomp-stream")
DEFAULT_SEED = 20260810
SETUP_RUNS = 3
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--write-reference", action="store_true")
    return ap.parse_args(argv)


def _worker(args, workload, mode, index, deadline) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{args.seed}-{os.getpid()}-{index}")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--mode", mode, "--workdir", workdir]
    if args.write_reference:
        cmd.append("--write-reference")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{workload} {mode} worker exceeded the time limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload: str) -> dict:
    """Set up and measure one workload; prints its report, returns the result object."""
    deadline = monotonic() + TIME_LIMIT_S
    setups = [] if args.trace else [
        _worker(args, workload, "setup", i, deadline)["setup_s"] for i in range(SETUP_RUNS - 1)]
    res = _worker(args, workload, "measure", SETUP_RUNS, deadline)
    setups.append(res["setup_s"])

    print(f"workload {workload}  seed {args.seed}  size {args.size}  "
          f"blas threads {BLAS_THREADS}  closed loop, 1 item in flight")
    print(f"check: {res['check']}")
    for name, reason in sorted(res["failures"].items()):
        print(f"failed item {name}: {reason}")
    for problem in res["problems"]:
        print(f"wrong output: {problem}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} distinct items; every run is checked)")

    if args.trace:
        metrics = res["layers"]
        print(f"traced pass of {res['items']} items; counts repeated on the first {res['repeat_items']}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": res["items_per_s"],
            "item_p50_ms": res["item_p50_ms"],
            "item_p90_ms": res["item_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_share": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"{res['passes']} passes of {res['items']} items ({res['runs']} runs), {res['busy_s']:.3f} s in the CLI; "
              f"{res['above_p90']} samples above item_p90_ms; setup_s is the median of {len(setups)} set-ups")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    return {
        "correct": not res["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "shtlab", "cli.py")):
        print(f"error: no shtlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(args, w) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[workloads[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
