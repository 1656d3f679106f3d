"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest -s tests/test_acceptance.py` to see the lines; the module-scoped
fixture executes the full 50/100/100 randomized suite once and the criteria
assert against its report and phase timings.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from conftest import ball_norm, open_ball, random_cloud
from shtlab.orlicz import Power, PowerLog, alpha_p
from shtlab.space import ball_table
from shtlab.suite import default_manifest, run_suite

SEED = 20260810


def announce(num, label, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[ACCEPTANCE {num}] {label}: PASS{suffix}")


@pytest.fixture(scope="module")
def suite_result():
    manifest = default_manifest(SEED, instances=50, cz=100, multilevel=100)
    report, timings = run_suite(manifest)
    return manifest, report, timings


def test_criterion_1_reduction_identities(suite_result):
    _, report, timings = suite_result
    assert len(report["instances"]) == 50
    for inst in report["instances"]:
        red = inst["reductions"]
        assert red["passed"], (inst["name"], red)
        assert red["rel_err_bump"] <= 1e-9
        assert red["rel_err_wp"] <= 1e-9
    assert timings["reductions"] <= 120.0
    announce(1, "reduction identities on 50 instances", timings["reductions"])


def test_criterion_2_explicit_chain(suite_result):
    _, report, timings = suite_result
    chains = [c for inst in report["instances"] for c in inst["chains"]]
    assert len(chains) == 150  # 50 instances x {power p', power 2p', powerlog p':1}
    for c in chains:
        assert c["passed"], c
        assert 0 < c["slack"] <= 1.0 + 1e-9
    assert timings["chains"] <= 600.0
    announce(2, "explicit proof-constant chain, 150 evaluations", timings["chains"])


def test_criterion_3_single_level_checker(suite_result):
    _, report, timings = suite_result
    assert len(report["cz"]) == 100
    for entry in report["cz"]:
        assert entry["violations"] == 0, entry
    nonempty = sum(1 for e in report["cz"] if e["omega_size"] > 0)
    assert nonempty >= 50  # the family of instances genuinely exercises the lemma
    assert timings["cz"] <= 120.0
    announce(3, f"stopping-time properties on 100 instances ({nonempty} nonempty)", timings["cz"])


def test_criterion_4_multi_level_checker(suite_result):
    _, report, timings = suite_result
    assert len(report["multilevel"]) == 100
    for entry in report["multilevel"]:
        assert entry["violations"] == 0, entry
    nontrivial = report["summary"]["multilevel_nontrivial"]
    assert nontrivial >= 20  # several instances reach >= 2 nonempty levels
    assert timings["multilevel"] <= 180.0
    announce(
        4,
        f"multi-level disjointing on 100 instances ({nontrivial} with >= 2 levels)",
        timings["multilevel"],
    )


def test_criterion_5_luxemburg_and_tail_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)
    pairs = 0
    while pairs < 200:
        sp = random_cloud(rng, int(rng.integers(3, 11)), dim=1 + pairs % 2)
        tbl = ball_table(sp)
        f = 10.0 ** rng.uniform(-2, 2, sp.n)
        ball = tbl.ball(int(rng.integers(0, tbl.m)))
        mask = open_ball(sp, ball.center, ball.radius)
        w = sp.mass[mask]
        for q in (1.0, 1.5, 2.0, 3.0, 10.0):
            closed = float(((f[mask] ** q * w).sum() / w.sum()) ** (1.0 / q))
            got = ball_norm(sp, f, ball, Power(q))
            assert abs(got - closed) <= 1e-9 * closed
        pairs += 1
    for _ in range(20):
        p = float(rng.uniform(1.3, 4.5))
        s = float(rng.uniform(1.0, p - 0.15))
        val = alpha_p(Power(s), p)
        assert abs(val - 1.0 / (p - s)) <= 1e-6 * val
        direct, _ = integrate.quad(lambda t: t ** (s - p - 1.0), 1, np.inf)
        assert val == pytest.approx(direct, rel=1e-7)
        assert alpha_p(Power(p + rng.uniform(0.0, 1.0)), p) == math.inf
    announce(5, "Luxemburg q-mean oracle (200 pairs) and tail integrals", time.perf_counter() - t0)


def test_criterion_6_generalized_hoelder():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    phis = [Power(2.0), Power(1.5), Power(3.0), PowerLog(2.0, 1.0), PowerLog(1.5, 1.0)]
    for trial in range(200):
        sp = random_cloud(rng, int(rng.integers(3, 10)), dim=1 + trial % 2)
        tbl = ball_table(sp)
        f = 10.0 ** rng.uniform(-1.5, 1.5, sp.n)
        g = 10.0 ** rng.uniform(-1.5, 1.5, sp.n)
        ball = tbl.ball(int(rng.integers(0, tbl.m)))
        mask = open_ball(sp, ball.center, ball.radius)
        lhs = float((f * g * sp.mass)[mask].sum() / sp.mass[mask].sum())
        phi = phis[trial % len(phis)]
        rhs = 2.0 * ball_norm(sp, f, ball, phi) * ball_norm(
            sp, g, ball, phi.conjugate()
        )
        assert lhs <= rhs * (1.0 + 1e-9), (trial, phi.label, lhs, rhs)
    announce(6, "generalized Hoelder inequality on 200 triples", time.perf_counter() - t0)


def test_criterion_7_sawyer_ordering(suite_result):
    _, report, _ = suite_result
    for inst in report["instances"]:
        op = inst["opnorm"]
        assert op["ordering_ok"], inst["name"]
        assert op["sawyer"] <= op["value"] + 1e-9
        assert op["witness_replay_ok"], inst["name"]
    line4 = next(i for i in report["instances"] if i["name"] == "inst-line4-ones")
    assert line4["opnorm"]["value"] >= math.sqrt(205.0 / 144.0) - 1e-9
    announce(7, "Sawyer constant below the operator-norm lower bound")


def test_criterion_8_weak_reverse_hoelder(suite_result):
    _, report, _ = suite_result
    checked = 0
    for inst in report["instances"]:
        if inst["rhi"] is None:
            continue
        assert inst["rhi"]["r_star"] > 1.0, inst["name"]
        checked += 1
    line4 = next(i for i in report["instances"] if i["name"] == "inst-line4-ones")
    assert line4["rhi"]["r_star"] == line4["rhi"]["r_max"]
    assert checked >= 40
    announce(8, f"weak reverse Hoelder exponent found on {checked} weights")


def test_criterion_9_engulfing_and_dilation(suite_result):
    _, report, _ = suite_result
    for inst in report["instances"]:
        assert inst["space_checks"] == {"engulfing": 0, "dilation": 0}, inst["name"]
    announce(9, "engulfing and dilation bounds clean on all suite spaces")


def test_criterion_10_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    manifest = default_manifest(SEED + 10, instances=5, cz=8, multilevel=8)
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    outs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "shtlab.cli", "verify", "--manifest", str(mpath),
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    announce(10, "repeated verify runs byte-identical", time.perf_counter() - t0)


def test_suite_has_zero_violations(suite_result):
    _, report, _ = suite_result
    assert report["summary"]["violations"] == 0
    assert report["violations"] == []
