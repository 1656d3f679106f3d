"""Output checks for benchmark items.

At the seed the reference files were taken at, every item must reproduce its
stored exit code, the exact JSON structure (keys, strings, integers, booleans)
and every float within ``REL_TOL``.  On any other seed the program's own
verdicts are checked instead: exit code 0 and zero violations.

The one known defect is accepted as a failure, never as a pass: a generated
single-level ``cz`` item whose level sits an ulp below the base average that
``cz_decompose`` recomputes exits 2 with ``level below base average``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

REL_TOL = 1e-10
KNOWN_DEFECT = "level below base average"
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str, size: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.{size}.json")


def load_reference(workload: str, size: str, seed: int) -> dict | None:
    """Stored reference items for this workload, or None at another seed."""
    path = reference_path(workload, size)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["items"] if ref["seed"] == seed else None


def _split(obj, floats: list, paths: list, path: str = ""):
    """Replace floats by None, collecting them and their paths in document order."""
    if isinstance(obj, float):
        floats.append(obj)
        paths.append(path)
        return None
    if isinstance(obj, dict):
        return {k: _split(v, floats, paths, f"{path}.{k}") for k, v in sorted(obj.items())}
    if isinstance(obj, list):
        return [_split(v, floats, paths, f"{path}[{i}]") for i, v in enumerate(obj)]
    return obj


def fingerprint(rc: int, text: str, err: str, paths: list | None = None) -> dict:
    """Reference entry of one item's result; ``paths`` receives each float's path."""
    if rc != 0 and not text:
        return {"exit": rc, "error": err.strip()}
    floats: list[float] = []
    shape = _split(json.loads(text), floats, [] if paths is None else paths)
    digest = hashlib.sha256(json.dumps(shape, sort_keys=True).encode()).hexdigest()
    return {"exit": rc, "shape": digest, "floats": floats}


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def is_known_defect(argv: list[str], rc: int, err: str) -> bool:
    return argv[0] == "cz" and "--lambda" in argv and rc == 2 and KNOWN_DEFECT in err


def against_reference(ref: dict, rc: int, text: str, err: str) -> str | None:
    """None when the result matches its reference entry, else the reason."""
    paths: list[str] = []
    got = fingerprint(rc, text, err, paths)
    if got["exit"] != ref["exit"]:
        return f"exit {got['exit']}, reference {ref['exit']}"
    if "error" in ref:
        return None if got.get("error") == ref["error"] else f"error {got.get('error')!r}"
    if got.get("shape") != ref["shape"]:
        return "report structure differs from reference"
    if len(got["floats"]) != len(ref["floats"]):
        return "number of values differs from reference"
    for path, a, b in zip(paths, got["floats"], ref["floats"]):
        if not _close(a, b):
            return f"{path} is {a!r}, reference {b!r}"
    return None


def own_checks(command: str, rc: int, text: str) -> str | None:
    """The program's own verdicts; None when they all pass."""
    if rc != 0:
        return f"exit {rc}"
    report = json.loads(text)
    if command == "verify":
        bad = report["summary"]["violations"]
        return f"{bad} violations" if bad else None
    if command == "cz":
        return f"{len(report['violations'])} violations" if report["violations"] else None
    raise ValueError(f"no checks for command {command!r}")
