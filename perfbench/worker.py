"""One benchmark process: set up a workload, then time or trace it.

Started by ``run.py``, one fresh process per set-up or measurement, and prints
one JSON object as its last line.  Set-up (imports, input generation, file
writes and one warm-up item) is timed from the first import of numpy.

``--mode setup`` stops after set-up.  ``--mode measure`` then runs whole
passes over the item list, in process through ``shtlab.cli.main``, while the
next pass is expected to end within ``--seconds``; it always runs at least
one.  With ``--trace 1`` it instead runs one untraced pass, installs the
tracer, runs one traced pass, and traces the first third of the items again
to check that every count repeats exactly.

``attempted`` and ``failed`` count distinct items, not runs: every run of an
item is checked, a repeat must reproduce the item's first result byte for
byte, and an item fails once however many passes repeat it.  So both counts
depend only on the seed, never on how many passes fit in the time.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--write-reference", action="store_true")
    return ap.parse_args(argv)


class Runner:
    """Runs items through the CLI and judges each result."""

    def __init__(self, main, reference):
        self.main = main
        self.reference = reference
        self.first: dict[str, tuple] = {}      # name -> key of the item's first result
        self.fingerprints: dict[str, dict] = {}
        self.failures: dict[str, str] = {}     # name -> reason, items that failed
        self.problems: list[str] = []          # results that are wrong, not just failed

    def run(self, item) -> tuple[float, int, str, str]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(item.out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.main(item.argv)
            except Exception:  # a crash is reported as a failed item, not a benchmark error
                rc = -1
                err.write(traceback.format_exc())
            dt = perf_counter() - t0
        text = ""
        if os.path.exists(item.out):
            with open(item.out, encoding="utf-8") as fh:
                text = fh.read()
        return dt, rc, text, err.getvalue()

    def judge(self, item, rc, text, err) -> None:
        """Record the verdict on one result."""
        key = (rc, hashlib.sha256(text.encode()).hexdigest(), err)
        if item.name in self.first:
            if key != self.first[item.name]:
                problem = "result differs from its first run"
                self.problems.append(f"{item.name}: {problem}")
                self.failures[item.name] = problem
            return
        if checks.is_known_defect(item.argv, rc, err):
            problem, failure = None, "known defect: " + err.strip()
        else:
            ref = None if self.reference is None else self.reference.get(item.name)
            if ref is not None and checks.KNOWN_DEFECT not in ref.get("error", ""):
                problem = checks.against_reference(ref, rc, text, err)
            elif rc != 0 and not text:
                problem = f"exit {rc}: {err.strip()[-300:]}"
            else:
                problem = checks.own_checks(item.argv[0], rc, text)
            failure = problem
        if problem is not None:
            self.problems.append(f"{item.name}: {problem}")
        if failure is not None:
            self.failures[item.name] = failure
        self.first[item.name] = key
        self.fingerprints[item.name] = checks.fingerprint(rc, text, err)

    def run_pass(self, items, on_item=None) -> list[float]:
        times = []
        for i, item in enumerate(items):
            dt, rc, text, err = self.run(item)
            times.append(dt)
            self.judge(item, rc, text, err)
            if on_item is not None:
                on_item(i)
        return times


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]


def _timing(passes: list[list[float]]) -> dict:
    """Each metric is the median over whole passes of that pass's figure.

    Every pass runs the same items, so a pass's figures change only with the
    machine's speed, and the median over passes discards the passes that a
    slow spell of the shared host fell on.
    """
    times = [t for pass_times in passes for t in pass_times]
    p90 = statistics.median(_p90(ts) for ts in passes)
    return {
        "items_per_s": statistics.median(len(ts) / sum(ts) for ts in passes),
        "item_p50_ms": 1e3 * statistics.median(statistics.median(ts) for ts in passes),
        "item_p90_ms": 1e3 * p90,
        "above_p90": sum(t > p90 for t in times),
        "runs": len(times),
        "busy_s": sum(times),
        "passes": len(passes),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (timed as part of set-up)
    import shtlab.cli

    import workloads

    items = workloads.build(args.workload, args.seed, args.size, args.workdir)
    reference = None if args.write_reference else checks.load_reference(args.workload, args.size, args.seed)
    runner = Runner(shtlab.cli.main, reference)
    warm = runner.run(items[0])
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # the warm-up run counts as the first run of item 0, so pass 1 re-runs it byte for byte
    runner.judge(items[0], *warm[1:])
    if reference is not None:
        result["check"] = f"reference {os.path.relpath(checks.reference_path(args.workload, args.size))} (seed {args.seed})"
    else:
        result["check"] = "own checks (exit code 0, zero violations)"

    if args.trace:
        result.update(_traced(runner, items))
    else:
        passes = []
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            passes.append(runner.run_pass(items))
            now = perf_counter()
            if now - start + (now - pass_start) > args.seconds:
                break
        result.update(_timing(passes))

    if args.write_reference:
        path = checks.reference_path(args.workload, args.size)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "items": runner.fingerprints}, fh, indent=0, sort_keys=True)
            fh.write("\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["items"] = len(items)
    result["attempted"] = len(runner.first)
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures
    result["problems"] = runner.problems
    print(json.dumps(result))
    return 0


def _traced(runner, items) -> dict:
    import tracing

    untraced = runner.run_pass(items)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    prefix = max(1, len(items) // 3)
    snapshot = {}

    def after(i):
        if i == prefix - 1:
            snapshot.update(tracer.count_snapshot())

    traced = runner.run_pass(items, after)
    metrics = tracer.metrics()
    tracer.reset()
    runner.run_pass(items[:prefix])
    repeat = tracer.count_snapshot()
    if repeat != snapshot:
        diff = sorted(k for k in repeat if repeat[k] != snapshot[k])
        runner.problems.append(f"counts differ on a repeated traced run: {', '.join(diff)}")
    metrics["trace.untraced_items_per_s"] = (len(untraced) / sum(untraced), "1/s")
    metrics["trace.traced_items_per_s"] = (len(traced) / sum(traced), "1/s")
    return {
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "repeat_items": prefix,
    }


if __name__ == "__main__":
    sys.exit(main())
