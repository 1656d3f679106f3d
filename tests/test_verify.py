import math

import numpy as np
import pytest

from conftest import open_ball, random_cloud, table_balls
from shtlab import suite, verify, weights
from shtlab.errors import InputError
from shtlab.orlicz import Power, PowerLog, alpha_p, luxemburg_norms_over_balls
from shtlab.space import QuasiMetricSpace, ball_table, build_space, space_profile
from shtlab.verify import (
    _ratio,
    opnorm_lower_bound,
    probe_moen_and_norm,
    verify_appendix_bump,
    verify_main_chain,
    verify_reductions,
    weak_rhi_probe,
)
from shtlab.weights import sawyer_constant

ONES4 = np.ones(4)
ATOM4 = np.array([1.0, 1.0, 1.0, 9.0])


# ------------------------------------------------------------ main chain


def test_chain_ones(line4):
    rep = verify_main_chain(line4, ONES4, ONES4, 2.0, Power(2))
    assert rep["sawyer_p"] == pytest.approx(1.0, rel=1e-9)
    assert rep["bump"] == pytest.approx(1.0, rel=1e-9)
    assert rep["wp_conjugate"] == pytest.approx(1.0, rel=1e-9)
    assert rep["bound"] >= 4.0
    assert rep["passed"]


def test_chain_atom(line4):
    rep = verify_main_chain(line4, ATOM4, ONES4, 2.0, Power(2))
    assert rep["passed"] and 0 < rep["slack"] <= 1.0


def test_chain_random_instances():
    rng = np.random.default_rng(21)
    for trial in range(6):
        sp = random_cloud(rng, int(rng.integers(3, 9)), dim=1 + trial % 2)
        w = 10.0 ** rng.uniform(-1, 1, sp.n)
        sigma = 10.0 ** rng.uniform(-1, 1, sp.n)
        p = float(rng.choice([1.2, 1.5, 2.0, 3.0]))
        pc = p / (p - 1)
        for phi in (Power(pc), PowerLog(pc, 1.0)):
            rep = verify_main_chain(sp, w, sigma, p, phi)
            assert rep["passed"], rep


def test_chain_slack_invariant_under_weight_scaling(line4):
    w = np.array([0.5, 2.0, 1.0, 3.0])
    sigma = np.array([1.0, 4.0, 0.25, 1.0])
    base = verify_main_chain(line4, w, sigma, 2.0, Power(2))
    scaled = verify_main_chain(line4, 4.0 * w, sigma, 2.0, Power(2))
    assert scaled["slack"] == pytest.approx(base["slack"], rel=1e-9)


# ------------------------------------------------------------ reductions


def test_reductions_trivial_and_atom(line4):
    rep = verify_reductions(line4, ONES4, ONES4, 2.0)
    assert rep["passed"]
    assert rep["bump_power_pconj"] == pytest.approx(1.0, rel=1e-9)
    rep = verify_reductions(line4, ATOM4, np.array([9.0, 1.0, 1.0, 1.0]), 2.0)
    assert rep["passed"]


def test_reductions_read_luxemburg_roots_not_averages():
    # after the suite's one solve, the Orlicz side of each identity has the bits
    # of the Power sweep of luxemburg_norms_over_balls on a fresh space, called
    # directly; bump_ap and wp_constant under Power are ball averages instead
    rng = np.random.default_rng(47)
    for trial in range(6):
        sp = random_cloud(rng, int(rng.integers(3, 9)), dim=1 + trial % 2)
        w, sigma = (10.0 ** rng.uniform(-1, 1, sp.n) for _ in range(2))
        sigma[rng.integers(sp.n)] = 0.0
        p = float(rng.choice([1.5, 2.0, 3.0]))
        pc = p / (p - 1.0)
        weights.solve_orlicz_constants(sp, verify.weight_constant_requests(w, sigma, p, [PowerLog(pc, 1.0)]))
        rep = verify_reductions(sp, w, sigma, p)
        fresh = QuasiMetricSpace(sp.dist, sp.mass)
        tbl = ball_table(fresh)
        norms = luxemburg_norms_over_balls(fresh, sigma ** (1.0 / pc), Power(pc))[0]
        assert rep["bump_power_pconj"] == float(np.max(tbl.averages(w) * norms**p))
        sb = tbl.weighted @ sigma
        live = sb > 0
        norms = luxemburg_norms_over_balls(fresh, sigma ** (1.0 / p) * tbl.member[live], Power(p))
        assert rep["wp_power_p"] == float(np.max(
            (tbl.point_max(norms) ** p * tbl.weighted[live]).sum(axis=1) / sb[live]))


# ------------------------------------------------------------ opnorm


def test_opnorm_line4_indicator_value(line4):
    est = opnorm_lower_bound(line4, ONES4, ONES4, 2.0)
    assert est.value >= math.sqrt(205.0 / 144.0) - 1e-9
    # constant test function realizes ratio exactly 1; included, never maximal
    ratio_const = np.sqrt((np.ones(4) ** 2).sum() / 4.0)
    assert est.value > ratio_const


def test_opnorm_dominates_sawyer():
    rng = np.random.default_rng(31)
    for _ in range(8):
        sp = random_cloud(rng, int(rng.integers(3, 9)))
        w = 10.0 ** rng.uniform(-1, 1, sp.n)
        sigma = 10.0 ** rng.uniform(-1, 1, sp.n)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        est = opnorm_lower_bound(sp, w, sigma, p)
        assert sawyer_constant(sp, w, sigma, p) <= est.value + 1e-9


def test_opnorm_witness_replays(line4):
    est = opnorm_lower_bound(line4, ATOM4, ONES4, 2.0)
    from shtlab.verify import _ratio

    assert _ratio(line4, ATOM4, ONES4, 2.0, est.witness) == pytest.approx(
        est.value, rel=1e-9
    )


def one_at_a_time_search(space, w, sigma, p, strategies, rng):
    """The opnorm search with one ratio call per test field: (value, witness, trials)."""
    best_val, best_f, trials = -np.inf, None, 0

    def ratio(f):
        r = float(_ratio(space, w, sigma, p, f))
        return None if math.isnan(r) else r

    def consider(f):
        nonlocal best_val, best_f, trials
        r = ratio(f)
        trials += 1
        if r is not None and r > best_val:
            best_val, best_f = r, f.copy()

    tbl = ball_table(space)
    if "indicators" in strategies:
        for b in np.sort(np.unique(tbl.member, axis=0, return_index=True)[1]):
            consider(tbl.member[b].astype(float))
    if "random" in strategies:
        for _ in range(24):
            consider(10.0 ** rng.uniform(-1.5, 1.5, size=space.n))
    if best_f is None:
        consider(np.ones(space.n))
    if "coordinate-ascent" in strategies:
        f = best_f.copy()
        scale = max(float(f.max()), 1.0)
        for _ in range(40):
            improved = False
            for i in range(space.n):
                base = f[i]
                options = [base * 4.0, base * 2.0, base * 0.5, base * 0.25]
                if base == 0.0:
                    options = [scale * 0.25, scale]
                for cand in options:
                    f[i] = cand
                    r = ratio(f)
                    trials += 1
                    if r is not None and r > best_val * (1.0 + 1e-6):
                        best_val, best_f, base, improved = r, f.copy(), cand, True
                    f[i] = base
            if not improved:
                break
    return best_val, best_f, trials


def test_stacked_search_equals_one_field_at_a_time():
    rng = np.random.default_rng(61)
    strategies = ("indicators", "random", "coordinate-ascent")
    for trial in range(6):
        sp = random_cloud(rng, int(rng.integers(3, 8)), dim=1 + trial % 2)
        w = 10.0 ** rng.uniform(-1, 1, sp.n)
        sigma = 10.0 ** rng.uniform(-1, 1, sp.n)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        value, witness, trials = one_at_a_time_search(
            sp, w, sigma, p, strategies, np.random.default_rng(7))
        est = opnorm_lower_bound(sp, w, sigma, p, strategies, rng=np.random.default_rng(7))
        assert est.trials == trials
        assert np.array_equal(est.witness, witness)
        assert est.value == pytest.approx(value, rel=1e-12)


def test_suite_replay_catches_a_fault_in_the_stacked_search(monkeypatch):
    ratio = verify._ratio

    def off_on_stacks(space, w, sigma, p, f):
        r = ratio(space, w, sigma, p, f)
        return r * (1.0 + 1e-8) if np.ndim(f) > 1 else r

    manifest = {"seed": 1, "instances": [{
        "name": "atom", "space": {"type": "grid", "shape": [4]}, "w": ATOM4.tolist(),
        "sigma": ONES4.tolist(), "p": 2.0, "phis": ["power:2"]}]}
    report, _ = suite.run_suite(manifest)
    assert report["instances"][0]["opnorm"]["witness_replay_ok"]
    assert report["violations"] == []
    for module in (verify, suite):
        monkeypatch.setattr(module, "_ratio", off_on_stacks)
    report, _ = suite.run_suite(manifest)
    assert report["instances"][0]["opnorm"]["witness_replay_ok"] is False
    assert {"instance": "atom", "check": "witness_replay"} in report["violations"]


def test_opnorm_extra_strategies_only_improve(line4):
    base = opnorm_lower_bound(line4, ATOM4, ONES4, 2.0)
    rng = np.random.default_rng(5)
    more = opnorm_lower_bound(
        line4,
        ATOM4,
        ONES4,
        2.0,
        strategies=("indicators", "random", "coordinate-ascent"),
        rng=rng,
    )
    assert more.value >= base.value - 1e-12
    assert more.trials > base.trials


def test_opnorm_rejects_unknown_strategy(line4):
    with pytest.raises(InputError):
        opnorm_lower_bound(line4, ONES4, ONES4, 2.0, strategies=("gradient",))


# ------------------------------------------------------------ probes


def test_probe_moen_line4(line4):
    rep = probe_moen_and_norm(line4, ONES4, ONES4, 2.0)
    # the indicator of {0} alone certifies sqrt(205/144); the search may beat it
    assert rep["moen_ratio"] >= math.sqrt(205.0 / 144.0) / 2.0 - 1e-9
    assert rep["moen_ratio"] == pytest.approx(rep["opnorm_lower"] / 2.0, rel=1e-12)
    qs = [row["q"] for row in rep["unweighted_sweep"]]
    assert qs == [1.25, 1.5, 2.0, 4.0]
    for row in rep["unweighted_sweep"]:
        assert row["best_ratio"] >= 1.0 - 1e-12


def test_chi0_witness_ratio_is_frozen_value(line4):
    # independent anchor: the indicator of {0} reproduces (205/144)**0.5 exactly
    from shtlab.verify import _ratio

    chi0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert _ratio(line4, ONES4, ONES4, 2.0, chi0) == pytest.approx(
        math.sqrt(205.0 / 144.0), rel=1e-12
    )


def test_probe_single_point(one_point):
    rep = probe_moen_and_norm(one_point, np.array([2.0]), np.array([5.0]), 2.0)
    assert rep["moen_ratio"] == pytest.approx(0.5, rel=1e-9)  # 1/p'


# ------------------------------------------------------------ reverse Hoelder


def test_rhi_constant_weight_reaches_rmax(line4):
    rep = weak_rhi_probe(line4, np.full(4, 2.0))
    assert rep["r_star"] == rep["r_max"] == 64.0


def test_rhi_atom_weight(line4):
    rep = weak_rhi_probe(line4, ATOM4)
    assert rep["r_star"] > 1.0
    assert np.isfinite(rep["tau_estimate"]) or rep["r_star"] == rep["r_max"]


def test_rhi_two_valued_weights_shrink(line4):
    stars = []
    for k in (4.0, 64.0, 4096.0):
        rep = weak_rhi_probe(line4, np.array([1.0, 1.0, 1.0, k]))
        assert rep["r_star"] > 1.0
        stars.append(rep["r_star"])
    assert stars[0] >= stars[1] >= stars[2]


def test_rhi_bisection_finds_the_largest_exponent():
    # a spike of 1e6 on a 32-point line fails the inequality at r = 64, so the
    # probe bisects.  Against open balls read off the distances, every ball holds
    # at r_star, within 8 ulps of rounding, and some ball fails 1e-12 above it
    sp = build_space({"type": "grid", "shape": [32]})
    w = np.ones(32)
    w[0] = 1e6
    r_star = weak_rhi_probe(sp, w)["r_star"]
    profile = space_profile(sp)
    factor = 2.0 * (4.0 * profile.kappa) ** profile.d_mu

    def worst(r):
        """max over balls B of (avg_B w**r)**(1/r) / (factor * avg_{2*kappa*B} w)."""
        ratios = []
        for ball in table_balls(sp):
            inner = open_ball(sp, ball.center, ball.radius)
            outer = open_ball(sp, ball.center, 2.0 * profile.kappa * ball.radius)
            lhs = (np.sum(w[inner] ** r * sp.mass[inner]) / np.sum(sp.mass[inner])) ** (1.0 / r)
            ratios.append(lhs / (factor * np.sum(w[outer] * sp.mass[outer]) / np.sum(sp.mass[outer])))
        return max(ratios)

    assert 1.0 < r_star < 64.0
    assert worst(r_star) <= 1.0 + 8 * np.finfo(float).eps
    assert worst(r_star * (1.0 + 1e-12)) > 1.0 + 8 * np.finfo(float).eps


def test_rhi_requires_positive(line4):
    with pytest.raises(InputError):
        weak_rhi_probe(line4, np.array([1.0, 0.0, 1.0, 1.0]))


# ------------------------------------------------------------ appendix bump


def test_appendix_bump_p2_r2(line4):
    rep = verify_appendix_bump(line4, ONES4, ONES4, 2.0, r=2.0)
    assert rep["phi_exponent"] == 4.0
    assert rep["conjugate_exponent"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert rep["alpha_p_conjugate"] == pytest.approx(1.5, rel=1e-9)
    assert rep["alpha_p_finite"]
    assert rep["bump"] == pytest.approx(1.0, rel=1e-9)


def test_appendix_bump_boundary():
    # conjugate exponent tends to p as r -> 1+, where the tail diverges
    assert alpha_p(Power(2.0), 2.0) == math.inf


def test_appendix_bump_rejects_r_at_most_one(line4):
    for r in (1.0, 0.5):
        with pytest.raises(InputError):
            verify_appendix_bump(line4, ONES4, ONES4, 2.0, r=r)


def test_appendix_bump_ones_any_r(line4):
    for r in (1.5, 2.0, 3.0):
        rep = verify_appendix_bump(line4, ONES4, ONES4, 2.0, r=r)
        assert rep["bump"] == pytest.approx(1.0, rel=1e-9)


# ------------------------------------------------------------ explicit constant


def test_chain_constant_matches_formula(line4):
    prof = space_profile(line4)
    rep = verify_main_chain(line4, ONES4, ONES4, 2.0, Power(2))
    expect = 4.0 * prof.level_base**2 * (2.0 * prof.theta) ** (3.0 * prof.d_mu)
    assert rep["bound"] == pytest.approx(expect, rel=1e-9)


def test_one_instance_reuses_its_weight_constants(monkeypatch):
    # one Luxemburg solve takes the norms that the reductions read under Power(p')
    # and Power(p), and those of the power-log chain: its jobs are bump's
    # sigma**(1/p') and wp's rows sigma**(1/p) * chi_B.  The power chains' constants
    # are closed forms, so the four Young functions below remain; every constant
    # then reads the memo.  A memo that never hits, as if cleared between calls,
    # adds one solve for each of the 4 calls that read norms (the reductions' two
    # and the power-log chain's two) and gives the same report
    manifest = {"seed": 1, "instances": [{
        "name": "atom", "space": {"type": "grid", "shape": [4]},
        "w": [1.0, 1.0, 1.0, 9.0], "sigma": [1.0, 1.0, 1.0, 1.0], "p": 2.0}]}
    core, calls = weights._norms_core, []

    def counted(*args):
        calls.append([[phi.label for phi in phis] for _, phis in args[4]])
        return core(*args)

    monkeypatch.setattr(weights, "_norms_core", counted)
    report, _ = suite.run_suite(manifest)
    assert calls == [[["power:2", "powerlog:2:1"], ["power:2", "conjugate(powerlog:2:1)"]]]
    calls.clear()
    bind = weights._bind
    monkeypatch.setattr(weights, "_bind", lambda *args, **kwargs: (bind(*args, **kwargs)[0], object()))
    assert suite.run_suite(manifest)[0] == report
    assert len(calls) == 1 + 4
