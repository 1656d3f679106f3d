"""Seeded workload inputs, written as JSON files for the shtlab CLI.

Every workload is a closed loop over a fixed list of items (one CLI call
each, one in flight).  The seed picks the inputs; the list's make-up is fixed
so that runs on different seeds do comparable work.

* ``suite-mix`` -- single-instance ``verify`` manifests from the suite's own
  instance generator (``default_manifest``): the two canonical line4
  instances plus, for each slot below, the first generated instances that fit
  it.  Instances with n > 8 are left out: one n = 9-18 item takes 1-36 s on a
  2-vCPU VM, so a handful of them set the pass time and the slow percentile,
  and which ones the seed drew moved those figures by a fifth.
* ``decomp-stream`` -- single-level (``--lambda``) and multi-level ``cz``
  items from the suite's ``cz`` and ``multilevel`` generators, alternating.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from shtlab.suite import default_manifest

# Slots after the two canonical line4 instances: (family, size, third, count).
# "line" is a 1-D grid of n points and "cloud" an explicit point cloud of n
# points, whose third field is p; "grid2" is a 2-D grid of the given shape,
# whose third field is its metric.  A third field of None takes any value.
# The full list has 78 items (0.1-0.8 s each, about 20 s a pass) in a fixed
# make-up, so the median and the slowest tenth each fall among a dozen or
# more items of like size, whatever the seed draws.
SUITE_SLOTS = {
    "full": [
        *(("line", n, None, 4) for n in (4, 5, 6, 7, 8)),
        *(("grid2", shape, None, 4) for shape in ((2, 2), (2, 3), (3, 2), (2, 4))),
        *(("cloud", n, None, 8) for n in (4, 5, 6, 7, 8)),
    ],
    "tiny": [("line", 6, 2.0, 1), ("cloud", 6, 3.0, 1)],
}
SUITE_CANDIDATES = 1500

DECOMP_ITEMS = {"full": 400, "tiny": 3}  # of each kind
TINY_MAX_N = 8


@dataclass(frozen=True)
class Item:
    name: str
    argv: list[str]
    out: str


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _points(spec: dict) -> int:
    if spec["type"] == "grid":
        return int(np.prod(spec["shape"]))
    return len(spec["mass"])


def _fits(inst: dict, family: str, size, third) -> bool:
    """Whether a generated instance fills a slot (see ``SUITE_SLOTS``)."""
    spec = inst["space"]
    if spec["type"] == "explicit":
        return family == "cloud" and len(spec["mass"]) == size and third in (None, inst["p"])
    shape = tuple(spec["shape"])
    if len(shape) == 1:
        return family == "line" and shape[0] == size and third in (None, inst["p"])
    return family == "grid2" and shape == size and third in (None, spec["metric"])


def _suite_instances(seed: int, size: str) -> list[dict]:
    count = SUITE_CANDIDATES
    while True:
        candidates = default_manifest(seed, count, 0, 0)["instances"]
        chosen = candidates[:2]  # the canonical line4 instances
        for family, shape, third, want in SUITE_SLOTS[size]:
            chosen += [c for c in candidates[2:] if _fits(c, family, shape, third)][:want]
        if len(chosen) == 2 + sum(slot[-1] for slot in SUITE_SLOTS[size]):
            return chosen
        count *= 4  # the generator extends its list without changing the prefix


def _suite_mix(seed, size, workdir):
    items = []
    for inst in _suite_instances(seed, size):
        name = inst["name"]
        manifest = _write(os.path.join(workdir, f"{name}.manifest.json"), {"seed": seed, "instances": [inst]})
        out = os.path.join(workdir, f"{name}.out.json")
        items.append(Item(name, ["verify", "--manifest", manifest, "--out", out], out))
    return items


def _decomp_stream(seed, size, workdir):
    per_kind = DECOMP_ITEMS[size]
    if size == "tiny":
        manifest = default_manifest(seed, 0, 30 * per_kind, 30 * per_kind)
        cz = [c for c in manifest["cz"] if _points(c["space"]) <= TINY_MAX_N][:per_kind]
        ml = [c for c in manifest["multilevel"] if _points(c["space"]) <= TINY_MAX_N][:per_kind]
    else:
        manifest = default_manifest(seed, 0, per_kind, per_kind)
        cz, ml = manifest["cz"], manifest["multilevel"]
    items = []
    for pair in zip(cz, ml):
        for item in pair:
            name = item["name"]
            space = _write(os.path.join(workdir, f"{name}.space.json"), item["space"])
            f = _write(os.path.join(workdir, f"{name}.f.json"), item["f"])
            out = os.path.join(workdir, f"{name}.out.json")
            level = ["--lambda", repr(item["lam"])] if "lam" in item else []
            items.append(Item(name, ["cz", "--space", space, "--f", f, *level, "--out", out], out))
    return items


_BUILDERS = {"suite-mix": _suite_mix, "decomp-stream": _decomp_stream}


def build(workload: str, seed: int, size: str, workdir: str) -> list[Item]:
    """Generate the workload's inputs under ``workdir``; returns its items in order."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[workload](seed, size, workdir)
