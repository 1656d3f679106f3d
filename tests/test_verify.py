import math

import numpy as np
import pytest

from conftest import random_cloud
from shtlab.czdecomp import cz_config
from shtlab.errors import InputError
from shtlab.orlicz import Power, PowerLog, alpha_p
from shtlab.space import space_profile
from shtlab.verify import (
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
    cfg = cz_config(prof)
    rep = verify_main_chain(line4, ONES4, ONES4, 2.0, Power(2))
    expect = 4.0 * cfg.a**2 * (2.0 * cfg.theta) ** (3.0 * prof.d_mu)
    assert rep["bound"] == pytest.approx(expect, rel=1e-9)
