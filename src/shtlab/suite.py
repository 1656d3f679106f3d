"""Randomized verification suite: instance generation and the batch runner.

Manifests are plain JSON: a seed plus explicit instance lists.  ``default_manifest``
generates a self-contained manifest from a seed; ``run_suite`` executes it and
returns (report, phase timings).  The report carries no timestamps or machine
state, so a fixed manifest always produces byte-identical output.

Instance families are metric (kappa = 1): integer grids in one and two
dimensions and random point clouds under l1/l2/linf.  Multi-level instances
use geometric cascades (exponentially spaced points with geometrically
growing masses): these keep the doubling order moderate while the total/min
mass ratio spans several powers of the default level base, so the disjointing
checks see genuinely multi-level families.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import asdict

import numpy as np

from .czdecomp import (
    _space_average,
    cz_decompose,
    multi_level_decompose,
    verify_cz_properties,
    verify_disjointing,
)
from .errors import InputError
from .space import ball_table, check_dilation_bounds, check_engulfing, space_profile
from .specio import _num, parse_phi, parse_space, parse_weight
from .verify import (
    _ratio,
    _sawyer_ordering,
    opnorm_lower_bound,
    probe_moen_and_norm,
    verify_appendix_bump,
    verify_main_chain,
    verify_reductions,
    weak_rhi_probe,
    weight_constant_requests,
)
from .weights import solve_orlicz_constants

__all__ = ["default_manifest", "run_suite"]

_P_GRID = (1.2, 1.5, 2.0, 3.0, 4.0)


def _round(values):
    """Values rounded to 12 decimals, as nested lists of the input's shape."""
    return np.round(np.asarray(values, dtype=float), 12).tolist()


def _random_space_spec(rng: np.random.Generator) -> dict:
    kind = rng.integers(0, 5)
    if kind == 0:
        n = int(rng.integers(4, 13))
        return {"type": "grid", "shape": [n], "metric": "l1", "mass": _positive(rng, n)}
    if kind == 1:
        shape = [int(rng.integers(2, 4)), int(rng.integers(2, 5))]
        n = shape[0] * shape[1]
        metric = str(rng.choice(["l1", "l2", "linf"]))
        return {"type": "grid", "shape": shape, "metric": metric, "mass": _positive(rng, n)}
    if kind == 4:
        n = int(rng.integers(13, 19))  # occasional larger cloud
    else:
        n = int(rng.integers(4, 13))
    dim = 1 if kind == 2 else 2
    pts = rng.uniform(0.0, 10.0, size=(n, dim))
    order = dim if rng.random() < 0.7 else np.inf
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, ord=order, axis=2)
    np.fill_diagonal(dist, 0.0)
    return {
        "type": "explicit",
        "dist": _round(dist),
        "mass": _positive(rng, n),
    }


def _positive(rng, n):
    if rng.random() < 0.3:
        return [1.0] * n
    return _round(10.0 ** rng.uniform(-1.0, 1.0, size=n))


def _weight_spec(rng, n, allow_zero=False) -> dict:
    roll = rng.random()
    if roll < 0.15:
        return {"type": "array", "values": [1.0] * n}
    if roll < 0.30:
        k = float(rng.choice([4.0, 16.0, 64.0]))
        vals = np.where(rng.random(n) < 0.5, 1.0, k)
        return {"type": "array", "values": vals.tolist()}
    if roll < 0.45:
        return {
            "type": "power",
            "alpha": float(np.round(rng.uniform(-1.2, 1.6), 3)),
            "center": int(rng.integers(0, n)),
            "offset": float(np.round(rng.uniform(0.3, 2.0), 3)),
        }
    vals = 10.0 ** rng.uniform(-1.5, 1.5, size=n)
    if allow_zero and rng.random() < 0.35:
        vals[rng.integers(0, n)] = 0.0
    return {"type": "array", "values": _round(vals)}


def _phi_specs(p: float) -> list[str]:
    pc = p / (p - 1.0)
    return [f"power:{pc!r}", f"power:{2.0 * pc!r}", f"powerlog:{pc!r}:1"]


def _cascade_space_spec(rng) -> dict:
    n = int(rng.integers(17, 27))
    ratio = float(rng.choice([2.0, 2.5]))
    growth = float(rng.choice([3.0, 4.0]))
    pts = ratio ** np.arange(n)
    dist = np.abs(pts[:, None] - pts[None, :])
    mass = growth ** np.arange(n)
    return {
        "type": "explicit",
        "dist": dist.tolist(),
        "mass": mass.tolist(),
    }


def _cz_instance(rng, idx) -> dict:
    spec = _random_space_spec(rng)
    space = parse_space(spec)
    n = space.n
    style = rng.integers(0, 3)
    if style == 0:
        f = np.zeros(n)
        spikes = rng.integers(1, max(2, n // 3), endpoint=True)
        f[rng.choice(n, size=int(spikes), replace=False)] = 10.0 ** rng.uniform(0, 2, size=int(spikes))
    elif style == 1:
        f = 10.0 ** rng.uniform(-1, 2, size=n)
    else:
        f = np.full(n, float(np.round(rng.uniform(0.5, 4.0), 6)))
    f = np.asarray(_round(f))
    max_mf = float(ball_table(space).averages(f).max())  # max Mf: the largest ball average
    # the base average exactly as cz_decompose computes it; the rounded max Mf
    # of a constant f can sit an ulp below it
    avg = _space_average(space, f)
    lam = avg + float(rng.uniform(0.0, 0.95)) * max(max_mf - avg, 0.0)
    return {"name": f"cz-{idx:03d}", "space": spec, "f": f.tolist(), "lam": float(lam)}


def _multilevel_instance(rng, idx) -> dict:
    if rng.random() < 0.75:
        spec = _cascade_space_spec(rng)
        n = len(spec["mass"])
        f = np.zeros(n)
        light = max(2, n // 3)
        spikes = int(rng.integers(1, 4))
        f[rng.choice(light, size=min(spikes, light), replace=False)] = 10.0 ** rng.uniform(
            0, 3, size=min(spikes, light)
        )
        if not f.any():
            f[0] = 1.0
    else:
        spec = _random_space_spec(rng)
        f = 10.0 ** rng.uniform(-1, 2, size=len(spec["mass"]))
    return {"name": f"ml-{idx:03d}", "space": spec, "f": _round(f)}


def default_manifest(seed: int, instances: int = 50, cz: int = 100, multilevel: int = 100) -> dict:
    """Self-contained manifest: canonical instances first, then random ones."""
    rng = np.random.default_rng(seed)
    inst = []
    line4 = {"type": "grid", "shape": [4], "metric": "l1", "mass": "uniform"}
    ones4 = {"type": "array", "values": [1.0, 1.0, 1.0, 1.0]}
    inst.append(
        {
            "name": "inst-line4-ones",
            "space": line4,
            "w": ones4,
            "sigma": ones4,
            "p": 2.0,
            "phis": _phi_specs(2.0),
            "probe": True,
        }
    )
    inst.append(
        {
            "name": "inst-line4-atom",
            "space": line4,
            "w": {"type": "array", "values": [1.0, 1.0, 1.0, 9.0]},
            "sigma": ones4,
            "p": 2.0,
            "phis": _phi_specs(2.0),
            "probe": True,
        }
    )
    while len(inst) < instances:
        i = len(inst)
        spec = _random_space_spec(rng)
        n = len(spec["mass"])
        p = float(_P_GRID[i % len(_P_GRID)])
        inst.append(
            {
                "name": f"inst-{i:03d}",
                "space": spec,
                "w": _weight_spec(rng, n, allow_zero=False),
                "sigma": _weight_spec(rng, n, allow_zero=True),
                "p": p,
                "phis": _phi_specs(p),
            }
        )
    return {
        "seed": seed,
        "instances": inst[:instances],
        "cz": [_cz_instance(rng, i) for i in range(cz)],
        "multilevel": [_multilevel_instance(rng, i) for i in range(multilevel)],
    }


def run_suite(manifest: dict) -> tuple[dict, dict]:
    """Execute a manifest; returns (report, phase timings in seconds)."""
    timings: dict[str, float] = {}

    def clock(phase, t0):
        timings[phase] = timings.get(phase, 0.0) + (time.perf_counter() - t0)

    violations: list[dict] = []
    report = {
        "seed": manifest.get("seed"),
        "instances": [],
        "cz": [],
        "multilevel": [],
        "probes": [],
    }

    for where, inst in _items(manifest, "instances", ("space", "w", "sigma", "p")):
        name = inst["name"]
        space, w, sigma = _inputs(where, inst, "w", "sigma")
        p = _num(inst, "p", where)
        phis = inst.get("phis", _phi_specs(p))
        if not isinstance(phis, list):
            raise InputError(f"{where} field 'phis' must be a list of Young function specs")
        profile = space_profile(space)
        entry: dict = {
            "name": name,
            "n": space.n,
            "p": p,
            "profile": asdict(profile),
            "config": {"theta": profile.theta, "eta": profile.eta, "a": profile.level_base},
        }

        t0 = time.perf_counter()
        engulf_bad = check_engulfing(space, profile)
        dil_bad = check_dilation_bounds(
            space, profile, [2.0, profile.engulf, profile.theta, profile.eta]
        )
        entry["space_checks"] = {"engulfing": len(engulf_bad), "dilation": len(dil_bad)}
        for b1, b2 in engulf_bad:
            violations.append({"instance": name, "check": "engulfing", "pair": [b1.center, b2.center]})
        for item in dil_bad:
            violations.append({"instance": name, "check": "dilation", "lambda": item["lambda"]})
        clock("space_checks", t0)

        t0 = time.perf_counter()
        with contextlib.suppress(InputError):  # the checks below read what this keeps, and meet any error in turn
            solve_orlicz_constants(space, weight_constant_requests(w, sigma, p, map(parse_phi, phis)))
        clock("orlicz", t0)

        t0 = time.perf_counter()
        red = verify_reductions(space, w, sigma, p)
        entry["reductions"] = red
        if not red["passed"]:
            violations.append({"instance": name, "check": "reduction", "detail": red})
        clock("reductions", t0)

        t0 = time.perf_counter()
        chains = []
        for phi_spec in phis:
            phi = parse_phi(phi_spec)
            chain = verify_main_chain(space, w, sigma, p, phi)
            chains.append(chain)
            if not chain["passed"]:
                violations.append(
                    {"instance": name, "check": "chain", "phi": phi.label, "slack": chain["slack"]}
                )
        entry["chains"] = chains
        clock("chains", t0)

        t0 = time.perf_counter()
        est = opnorm_lower_bound(space, w, sigma, p, strategies=("indicators",))
        sawyer, ordering_ok = _sawyer_ordering(space, w, sigma, p, est)
        replay = float(_ratio(space, w, sigma, p, est.witness))  # alone, not in a stack
        if np.isnan(replay):
            raise InputError("witness has zero norm")
        replay_ok = bool(abs(replay - est.value) <= 1e-9 * max(est.value, 1.0))
        entry["opnorm"] = {
            "value": est.value,
            "sawyer": sawyer,
            "ordering_ok": ordering_ok,
            "witness_replay_ok": replay_ok,
            "trials": est.trials,
        }
        if not ordering_ok:
            violations.append({"instance": name, "check": "sawyer_ordering", "sawyer": sawyer, "opnorm": est.value})
        if not replay_ok:
            violations.append({"instance": name, "check": "witness_replay"})
        clock("opnorm", t0)

        t0 = time.perf_counter()
        rhi = weak_rhi_probe(space, w) if np.all(w > 0) else None
        entry["rhi"] = rhi
        if rhi is not None and not rhi["r_star"] > 1.0:
            violations.append({"instance": name, "check": "rhi_exponent", "r_star": rhi["r_star"]})
        clock("rhi", t0)

        if inst.get("probe"):
            t0 = time.perf_counter()
            probe = probe_moen_and_norm(space, w, sigma, p)
            probe["instance"] = name
            probe["appendix_bump"] = verify_appendix_bump(space, w, sigma, p, r=2.0)
            report["probes"].append(probe)
            clock("probes", t0)

        report["instances"].append(entry)

    t0 = time.perf_counter()
    for where, item in _items(manifest, "cz", ("space", "f", "lam")):
        name = item["name"]
        space, f = _inputs(where, item, "f")
        lam = _num(item, "lam", where)
        dec = cz_decompose(space, f, lam)
        check = verify_cz_properties(space, dec, f)
        report["cz"].append(
            {
                "name": name,
                "n": space.n,
                "lambda": lam,
                "omega_size": int(dec.omega.size),
                "selected": len(dec.selected),
                "violations": len(check["violations"]),
                "undilated_exceedances": check["undilated_exceedances"],
            }
        )
        for v in check["violations"]:
            violations.append({"instance": name, "check": "cz", "kind": v["kind"]})
    clock("cz", t0)

    t0 = time.perf_counter()
    for where, item in _items(manifest, "multilevel", ("space", "f")):
        name = item["name"]
        space, f = _inputs(where, item, "f")
        fam = multi_level_decompose(space, f)
        check = verify_disjointing(space, fam)
        report["multilevel"].append(
            {
                "name": name,
                "n": space.n,
                "a": fam.a,
                "k0": fam.k0,
                "levels": len(fam.entries),
                "balls_per_level": [len(e.balls) for e in fam.entries],
                "violations": len(check["violations"]),
            }
        )
        for v in check["violations"]:
            violations.append({"instance": name, "check": "multilevel", "kind": v["kind"]})
    clock("multilevel", t0)

    report["violations"] = violations
    report["summary"] = {
        "instances": len(report["instances"]),
        "cz": len(report["cz"]),
        "multilevel": len(report["multilevel"]),
        "violations": len(violations),
        "multilevel_nontrivial": sum(1 for e in report["multilevel"] if e["levels"] >= 2),
    }
    return report, timings


def _items(manifest: dict, section: str, fields: tuple):
    """(where, item) per item of a manifest section; InputError names a
    section that is not a list, an item that is not an object, or a missing field."""
    items = manifest.get(section, [])
    if not isinstance(items, list):
        raise InputError(f"manifest section {section!r} must be a list, got {type(items).__name__}")
    for i, item in enumerate(items):
        where = f"manifest {section}[{i}]"
        if not isinstance(item, dict):
            raise InputError(f"{where} must be a JSON object")
        missing = [key for key in ("name",) + fields if key not in item]
        if missing:
            raise InputError(f"{where} lacks field {missing[0]!r}")
        yield f"{where} ({item['name']})", item


def _inputs(where: str, item: dict, *fields: str):
    """(space, *vectors) of a manifest item, the vectors parsed from ``fields``;
    an InputError from a parser is prefixed with the item's ``where``."""
    try:
        space = parse_space(item["space"])
        return (space, *(parse_weight(item[key], space) for key in fields))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc
