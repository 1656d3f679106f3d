import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import open_ball, random_cloud, restricted_hl, table_balls
from shtlab.errors import InputError
from shtlab.maximal import orlicz_maximal
from shtlab.orlicz import Power, PowerLog
from shtlab.space import QuasiMetricSpace, ball_table
from shtlab.weights import (
    _bump_luxemburg,
    _wp_luxemburg,
    ainfty_exp,
    ainfty_fujii_wilson,
    ap_constant,
    bump_ap,
    constants_report,
    sawyer_constant,
    solve_orlicz_constants,
    two_weight_ap,
    wp_constant,
)

ONES4 = np.ones(4)
ATOM4 = np.array([1.0, 1.0, 1.0, 9.0])


# ------------------------------------------------------------ oracles


def oracle_two_weight(space, w, sigma, p):
    best = 0.0
    for b in table_balls(space):
        m = open_ball(space, b.center, b.radius)
        mu = space.mass[m].sum()
        best = max(
            best,
            (w * space.mass)[m].sum() / mu * ((sigma * space.mass)[m].sum() / mu) ** (p - 1),
        )
    return best


def oracle_fujii_wilson(space, w):
    best = 0.0
    for b in table_balls(space):
        m = open_ball(space, b.center, b.radius)
        wb = (w * space.mass)[m].sum()
        if wb == 0:
            continue
        r = restricted_hl(space, w, b)
        best = max(best, (r * space.mass)[m].sum() / wb)
    return best


def oracle_sawyer(space, w, sigma, p):
    best = 0.0
    for b in table_balls(space):
        m = open_ball(space, b.center, b.radius)
        sb = (sigma * space.mass)[m].sum()
        if sb == 0:
            continue
        r = restricted_hl(space, sigma, b)
        best = max(best, ((r**p * w * space.mass)[m].sum() / sb) ** (1.0 / p))
    return best


def oracle_bump_power(space, w, sigma, p, q):
    # closed-form power Luxemburg norms
    pc = p / (p - 1.0)
    best = 0.0
    g = sigma ** (1.0 / pc)
    for b in table_balls(space):
        m = open_ball(space, b.center, b.radius)
        mu = space.mass[m].sum()
        norm = ((g[m] ** q * space.mass[m]).sum() / mu) ** (1.0 / q)
        best = max(best, (w * space.mass)[m].sum() / mu * norm**p)
    return best


# ------------------------------------------------------------ A_p family


def test_ap_ones(line4):
    assert ap_constant(line4, ONES4, 2.0) == 1.0
    assert ap_constant(line4, ONES4, 1.5) == 1.0


def test_ap_requires_positive(line4):
    with pytest.raises(InputError, match="strictly positive"):
        ap_constant(line4, np.array([1.0, 0.0, 1.0, 1.0]), 2.0)


def test_ap_atom_weight_against_two_weight_dual(line4):
    # [w]_Ap equals the two-weight constant against sigma = w**(1-p')
    p = 2.0
    sigma = ATOM4 ** (1.0 - 2.0)
    assert ap_constant(line4, ATOM4, p) == pytest.approx(
        oracle_two_weight(line4, ATOM4, sigma, p), rel=1e-12
    )


def test_two_weight_examples(line4):
    assert two_weight_ap(line4, ONES4, ONES4, 2.0) == 1.0
    assert two_weight_ap(line4, ATOM4, ONES4, 2.0) == 9.0
    sparse = np.array([0.0, 0.0, 0.0, 1.0])
    val = two_weight_ap(line4, ONES4, sparse, 2.0)
    assert np.isfinite(val)


def test_two_weight_matches_oracle_random():
    rng = np.random.default_rng(8)
    for _ in range(6):
        sp = random_cloud(rng, int(rng.integers(3, 9)))
        w = 10.0 ** rng.uniform(-1, 1, sp.n)
        s = 10.0 ** rng.uniform(-1, 1, sp.n)
        p = float(rng.choice([1.2, 1.5, 2.0, 3.0]))
        assert two_weight_ap(sp, w, s, p) == pytest.approx(
            oracle_two_weight(sp, w, s, p), rel=1e-12
        )


# ------------------------------------------------------------ A_infty


def test_fujii_wilson_examples(line4, one_point):
    assert ainfty_fujii_wilson(line4, ONES4) == 1.0
    assert ainfty_fujii_wilson(one_point, np.array([2.0])) == 1.0
    assert ainfty_fujii_wilson(line4, ATOM4) == pytest.approx(
        oracle_fujii_wilson(line4, ATOM4), rel=1e-12
    )


def test_fujii_wilson_at_least_one(line4):
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = 10.0 ** rng.uniform(-1, 1, 4)
        assert ainfty_fujii_wilson(line4, w) >= 1.0 - 1e-12


def test_ainfty_exp(line4, two_point):
    assert ainfty_exp(line4, np.full(4, 3.0)) == pytest.approx(1.0, rel=1e-12)
    w = np.array([np.e, 1.0 / np.e])
    assert ainfty_exp(two_point, w) == pytest.approx(np.cosh(1.0), rel=1e-12)
    with pytest.raises(InputError):
        ainfty_exp(line4, np.array([1.0, 0.0, 1.0, 1.0]))
    assert ainfty_exp(line4, ATOM4) >= 1.0


# ------------------------------------------------------------ bump / Wp


def test_bump_reduces_to_two_weight(line4):
    sigma = np.array([1.0, 1.0, 1.0, 9.0])
    for p in (1.5, 2.0, 3.0):
        got = bump_ap(line4, ATOM4, sigma, p, Power(p / (p - 1.0)))
        assert got == pytest.approx(two_weight_ap(line4, ATOM4, sigma, p), rel=1e-9)


def test_bump_ones(line4):
    assert bump_ap(line4, ONES4, ONES4, 2.0, Power(2)) == pytest.approx(1.0, rel=1e-9)


def test_bump_line4_power4_oracle(line4):
    sigma = np.array([1.0, 1.0, 1.0, 9.0])
    got = bump_ap(line4, ONES4, sigma, 2.0, Power(4))
    assert got == pytest.approx(oracle_bump_power(line4, ONES4, sigma, 2.0, 4.0), rel=1e-9)


def test_bump_monotone_in_exponent(line4):
    sigma = np.array([2.0, 0.5, 1.0, 4.0])
    vals = [bump_ap(line4, ATOM4, sigma, 2.0, Power(q)) for q in (1.5, 2.0, 4.0, 8.0)]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(vals, vals[1:]))


def test_wp_reduces_to_fujii_wilson(line4):
    sigma = np.array([1.0, 1.0, 1.0, 9.0])
    for p in (1.5, 2.0, 3.0):
        assert wp_constant(line4, sigma, p, Power(p)) == pytest.approx(
            ainfty_fujii_wilson(line4, sigma), rel=1e-9
        )


def test_wp_ones(line4):
    assert wp_constant(line4, ONES4, 2.0, Power(2)) == pytest.approx(1.0, rel=1e-9)


def test_wp_skips_sigma_null_balls(line4):
    sparse = np.array([4.0, 0.0, 0.0, 0.0])
    val = wp_constant(line4, sparse, 2.0, Power(2))
    assert np.isfinite(val) and val > 0


def oracle_wp(space, sigma, p, phi):
    """Per-ball Orlicz maximal functions of sigma**(1/p) * chi_B, summed."""
    tbl = ball_table(space)
    g = sigma ** (1.0 / p)
    best = 0.0
    for b in range(tbl.m):
        sb = (sigma * tbl.weighted[b]).sum()
        if sb > 0:
            mphi = orlicz_maximal(space, g * tbl.member[b], phi)
            best = max(best, (mphi**p * tbl.weighted[b]).sum() / sb)
    return best


def test_wp_matches_per_ball_oracle():
    rng = np.random.default_rng(41)
    for trial in range(4):
        sp = random_cloud(rng, int(rng.integers(3, 7)), dim=1 + trial % 2)
        sigma = 10.0 ** rng.uniform(-1, 1, sp.n)
        sigma[rng.integers(sp.n)] = 0.0
        p = float(rng.uniform(1.3, 3.0))
        for phi in (Power(float(rng.uniform(1.2, 3.0))), PowerLog(p, 1.0).conjugate()):
            assert wp_constant(sp, sigma, p, phi) == pytest.approx(
                oracle_wp(sp, sigma, p, phi), rel=1e-10
            )


def test_conjugate_path_matches_power_identities():
    # The Legendre conjugate of t**q is c * t**(q') with c = (q-1) * q**(-q'),
    # so with q = p' the numeric-conjugate path has exact closed forms.
    rng = np.random.default_rng(2013)
    for p in (1.2, 1.5, 2.0, 3.0, 4.0):
        pc = p / (p - 1.0)
        scale = (pc - 1.0) * pc ** (-p)
        for trial in range(2):
            sp = random_cloud(rng, int(rng.integers(4, 8)), dim=1 + trial)
            w = 10.0 ** rng.uniform(-1, 1, sp.n)
            sigma = 10.0 ** rng.uniform(-1, 1, sp.n)
            phi = PowerLog(pc, 0.0)
            assert wp_constant(sp, sigma, p, phi.conjugate()) == pytest.approx(
                scale * ainfty_fujii_wilson(sp, sigma), rel=1e-10
            )
            assert bump_ap(sp, w, sigma, p, phi) == pytest.approx(
                two_weight_ap(sp, w, sigma, p), rel=1e-10
            )


# ------------------------------------------------------------ Power closed forms


def power_contexts(seed, count):
    """(space, w, sigma, p, Power(s)) on 1-D and 2-D clouds of 2-8 points, sigma
    with a zero, s in {p', 2p', p, 4}."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        sp = random_cloud(rng, int(rng.integers(2, 9)), dim=1 + trial % 2)
        w, sigma = (10.0 ** rng.uniform(-1, 1, sp.n) for _ in range(2))
        sigma[rng.integers(sp.n)] = 0.0
        p = float(rng.choice([1.5, 2.0, 3.0]))
        pc = p / (p - 1.0)
        for s in (pc, 2.0 * pc, p, 4.0):
            yield sp, w, sigma, p, Power(s)


def test_power_closed_forms_agree_with_the_luxemburg_route():
    for sp, w, sigma, p, phi in power_contexts(97, 20):
        assert bump_ap(sp, w, sigma, p, phi) == pytest.approx(
            _bump_luxemburg(sp, w, sigma, p, phi), rel=1e-11)
        assert wp_constant(sp, sigma, p, phi) == pytest.approx(
            _wp_luxemburg(sp, sigma, p, phi), rel=1e-11)


def test_power_closed_forms_are_homogeneous_over_the_float_range():
    # bump is of degree 1 in w and p - 1 in sigma, wp of degree 0 in sigma; the
    # scaled value is taken exactly in Decimal and compared where it is a normal float
    scales = [10.0**k for k in (-300, -200, -100, 0, 100, 200, 300)]
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for sp, w, sigma, p, phi in power_contexts(89, 6):
            bump, wp = bump_ap(sp, w, sigma, p, phi), wp_constant(sp, sigma, p, phi)
            for cw, cs in itertools.product(scales, scales):
                exact = Decimal(bump) * Decimal(cw) * Decimal(cs) ** Decimal(p - 1.0)
                if Decimal("1e-300") < exact < Decimal("1e300"):
                    assert bump_ap(sp, cw * w, cs * sigma, p, phi) == pytest.approx(float(exact), rel=1e-13)
            for cs in scales:
                assert wp_constant(sp, cs * sigma, p, phi) == pytest.approx(wp, rel=1e-13)


def test_power_closed_forms_keep_a_wide_spread_of_sigma(line4):
    # sigma from 1e-200 to 1 within one field: no value underflows to 0, none raises
    rng = np.random.default_rng(101)
    for sp, w, sigma, p, phi in power_contexts(83, 6):
        spread = np.where(sigma > 0, 10.0 ** rng.uniform(-200, 0, sp.n), 0.0)
        spread[np.argmax(spread)] = 1.0
        assert bump_ap(sp, w, spread, p, phi) > 0 and wp_constant(sp, spread, p, phi) > 0
    # degree 0: sigma = [1e308, 1e-308, 1, 1] is [1, 0, 1e-308, 1e-308] to float precision
    assert wp_constant(line4, [1e308, 1e-308, 1.0, 1.0], 2.0, Power(2.0)) == pytest.approx(
        wp_constant(line4, [1.0, 0.0, 1e-308, 1e-308], 2.0, Power(2.0)), rel=1e-15)


def test_power_closed_forms_refuse_what_they_cannot_hold():
    # masses [1e-200, 1, 1, 1e200]: mu_max/mass_min overflows, and the whole-line
    # average of sigma = [1, 0, 0, 0] underflows to 0 (wp would read 2.5, not 3.5)
    extreme = QuasiMetricSpace([[abs(i - j) for j in range(4)] for i in range(4)], [1e-200, 1, 1, 1e200])
    for sigma in (ONES4, [1.0, 0.0, 0.0, 0.0]):
        for s in (2.0, 20.0):
            with pytest.raises(InputError, match="mass ratio mu_max/mass_min"):
                bump_ap(extreme, ONES4, sigma, 2.0, Power(s))
            with pytest.raises(InputError, match="mass ratio mu_max/mass_min"):
                wp_constant(extreme, sigma, 2.0, Power(s))
    # a finite mass ratio, 1e300, but the one live term, 1, is 2.5e-601 once sigma
    # is scaled to a maximum of 1/2: it underflows, and 0 is not returned
    pair = QuasiMetricSpace([[0.0, 1.0], [1.0, 0.0]], [1e-150, 1e150])
    with pytest.raises(InputError, match="bump_ap under power:1.5 underflows"):
        bump_ap(pair, [0.0, 1.0], [1e300, 0.0], 3.0, Power(1.5))


def exact_balls(space):
    """Every open ball dist(c, .) < r as a member list, r over every positive
    distance and one past the maximum: the whole family, with no ball table."""
    radii = sorted({float(d) for d in space.dist.ravel() if d > 0} | {float(space.dist.max()) + 1.0})
    return [[y for y in range(space.n) if space.dist[c, y] < r] for c in range(space.n) for r in radii]


def exact_average(space, f, ball):
    return sum(Fraction(f[y]) * Fraction(space.mass[y]) for y in ball) / sum(
        Fraction(space.mass[y]) for y in ball)


def exact_power_constants(space, w, sigma):
    """bump_ap and wp_constant at p = s = 2 in exact arithmetic: sup_B avg_B w *
    avg_B sigma, and sup_B (1/sigma(B)) * sum_B M(sigma * chi_B) dmu."""
    balls = exact_balls(space)
    bump = max(exact_average(space, w, b) * exact_average(space, sigma, b) for b in balls)
    wp = 0
    for b in balls:
        held = [sigma[y] if y in b else 0.0 for y in range(space.n)]
        mass_b = sum(Fraction(sigma[y]) * Fraction(space.mass[y]) for y in b)
        if mass_b > 0:
            total = sum(max(exact_average(space, held, c) for c in balls if x in c) * Fraction(space.mass[x])
                        for x in b)
            wp = max(wp, total / mass_b)
    return bump, wp


def test_power_closed_forms_are_within_8_ulps_of_exact_arithmetic():
    rng = np.random.default_rng(15)
    for trial in range(12):
        n = int(rng.integers(2, 6))
        coords = np.sort(rng.choice(8, size=n, replace=False)).astype(float)
        sp = QuasiMetricSpace(np.abs(np.subtract.outer(coords, coords)), rng.integers(1, 9, n) / 8.0)
        w, sigma = (rng.integers(0, 17, n) / 16.0 for _ in range(2))
        w[0] = sigma[-1] = 1.0
        bump, wp = exact_power_constants(sp, w, sigma)
        for got, exact in ((bump_ap(sp, w, sigma, 2.0, Power(2.0)), bump),
                           (wp_constant(sp, sigma, 2.0, Power(2.0)), wp)):
            assert abs(Fraction(got) - exact) <= 8 * Fraction(math.ulp(float(exact))), (trial, got, exact)


def test_point_max_rows_match_single_rows():
    rng = np.random.default_rng(43)
    sp = random_cloud(rng, 7, dim=2)
    tbl = ball_table(sp)
    per_ball = rng.uniform(size=(10, tbl.m))
    got = tbl.point_max(per_ball)
    assert got.shape == (10, sp.n) and got.flags.c_contiguous
    assert np.array_equal(got, np.array([tbl.point_max(row) for row in per_ball]))
    assert np.array_equal(tbl.point_max(per_ball.reshape(2, 5, tbl.m)), got.reshape(2, 5, sp.n))


def test_dilated_matches_ball_mask():
    """Each dilate of the table is the open-ball oracle at the dilated radius."""
    rng = np.random.default_rng(47)
    sp = random_cloud(rng, 6, dim=2)
    tbl = ball_table(sp)
    for lam in (1.0, 1.5, 2.0, 7.25):
        dil = tbl.dilated(lam)
        for b, ball in enumerate(table_balls(sp)):
            assert np.array_equal(dil[b], open_ball(sp, ball.center, lam * ball.radius))
    assert np.array_equal(tbl.dilated(1.0), tbl.member)


# ------------------------------------------------------------ Sawyer


def test_sawyer_examples(line4, one_point):
    assert sawyer_constant(line4, ONES4, ONES4, 2.0) == 1.0
    # one point: closed form sigma**(1/p') * w**(1/p), independent of the mass
    assert sawyer_constant(one_point, np.array([1.0]), np.array([1.0]), 2.0) == 1.0
    assert sawyer_constant(one_point, np.array([2.0]), np.array([3.0]), 2.0) == (
        pytest.approx(3.0**0.5 * 2.0**0.5, rel=1e-12)
    )
    sparse = np.array([4.0, 0.0, 0.0, 0.0])
    assert sawyer_constant(line4, ONES4, sparse, 2.0) == pytest.approx(
        oracle_sawyer(line4, ONES4, sparse, 2.0), rel=1e-12
    )


def test_sawyer_matches_oracle_random():
    rng = np.random.default_rng(12)
    for _ in range(5):
        sp = random_cloud(rng, int(rng.integers(3, 8)))
        w = 10.0 ** rng.uniform(-1, 1, sp.n)
        s = 10.0 ** rng.uniform(-1, 1, sp.n)
        assert sawyer_constant(sp, w, s, 2.0) == pytest.approx(
            oracle_sawyer(sp, w, s, 2.0), rel=1e-12
        )


# ------------------------------------------------------------ invariances


def test_scale_invariance(line4):
    w = np.array([0.5, 2.0, 1.0, 3.0])
    sigma = np.array([1.0, 4.0, 0.25, 1.0])
    c = 4.0
    assert two_weight_ap(line4, c * w, sigma, 2.0) == pytest.approx(
        c * two_weight_ap(line4, w, sigma, 2.0), rel=1e-12
    )
    assert ainfty_fujii_wilson(line4, c * w) == pytest.approx(
        ainfty_fujii_wilson(line4, w), rel=1e-12
    )


def test_constants_report_fields(line4):
    rep = constants_report(line4, ATOM4, ONES4, 2.0, Power(2))
    assert rep["two_weight_ap"] == 9.0 and rep["n"] == 4
    assert rep["ap"] is not None and rep["ainfty_exp"] is not None
    zero_w = np.array([1.0, 0.0, 1.0, 1.0])
    rep2 = constants_report(line4, zero_w, ONES4, 2.0, Power(2))
    assert rep2["ap"] is None and rep2["ainfty_exp"] is None
    assert np.isfinite(rep2["two_weight_ap"])


def test_powerlog_bump_is_finite_and_reduction_consistent(line4):
    sigma = np.array([2.0, 1.0, 0.5, 4.0])
    phi = PowerLog(2.0, 1.0)
    v = bump_ap(line4, ATOM4, sigma, 2.0, phi)
    assert np.isfinite(v) and v > 0
    wp = wp_constant(line4, sigma, 2.0, phi.conjugate())
    assert np.isfinite(wp) and wp > 0


# every weight constant as a function of one context (space, w, sigma, p, phi)
MEMOISED = {
    "ap_constant": lambda sp, w, sigma, p, phi: ap_constant(sp, w, p),
    "two_weight_ap": lambda sp, w, sigma, p, phi: two_weight_ap(sp, w, sigma, p),
    "ainfty_fujii_wilson": lambda sp, w, sigma, p, phi: ainfty_fujii_wilson(sp, w),
    "ainfty_exp": lambda sp, w, sigma, p, phi: ainfty_exp(sp, w),
    "bump_ap": lambda sp, w, sigma, p, phi: bump_ap(sp, w, sigma, p, phi),
    "wp_constant": lambda sp, w, sigma, p, phi: wp_constant(sp, sigma, p, phi),
    "sawyer_constant": lambda sp, w, sigma, p, phi: sawyer_constant(sp, w, sigma, p),
}


def test_memo_keeps_one_value_per_input():
    # one space sees every constant at every combination of two weights, two
    # exponents and two Young functions, and each value is the bits a fresh
    # space computes: the memo key holds every input
    rng = np.random.default_rng(61)
    sp = random_cloud(rng, 5, dim=2)
    vectors = [10.0 ** rng.uniform(-1, 1, sp.n) for _ in range(2)]
    contexts = itertools.product(vectors, vectors, (1.5, 3.0), (Power(2.0), PowerLog(2.0, 1.0)))
    for w, sigma, p, phi in contexts:
        for name, compute in MEMOISED.items():
            fresh = QuasiMetricSpace(sp.dist, sp.mass)
            assert compute(sp, w, sigma, p, phi) == compute(fresh, w, sigma, p, phi), name
            assert compute(sp, list(w), sigma, p, phi) == compute(fresh, w, sigma, p, phi), name


BIG4 = np.full(4, 1e300)


# the overflow warns, then the non-finite value itself is refused
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name, compute",
    [
        ("ap_constant", lambda sp: ap_constant(sp, [1e-320, 1.0, 1.0, 1.0], 2.0)),
        ("two_weight_ap", lambda sp: two_weight_ap(sp, BIG4, BIG4, 3.0)),
        ("ainfty_fujii_wilson", lambda sp: ainfty_fujii_wilson(sp, np.full(4, 1e308))),
        ("ainfty_exp", lambda sp: ainfty_exp(sp, [1e300, 1e-300, 1e-300, 1e-300])),
        ("bump_ap", lambda sp: bump_ap(sp, BIG4, BIG4, 2.0, Power(2.0))),
        # under Power, wp is the scale-free closed form (2.0833... here); the
        # Luxemburg route of a power-log Phi still overflows its sums
        ("wp_constant", lambda sp: wp_constant(sp, [1e308, 1e-308, 1.0, 1.0], 2.0, PowerLog(2.0, 1.0))),
        ("sawyer_constant", lambda sp: sawyer_constant(sp, ONES4, BIG4, 2.0)),
        ("sawyer_constant", lambda sp: constants_report(sp, ONES4, BIG4, 2.0, Power(2.0))),
    ],
)
def test_non_finite_constant_is_refused_by_name(line4, name, compute):
    with pytest.raises(InputError, match=rf"^{name} is (inf|nan), not a finite number$"):
        compute(line4)


def test_batched_constants_are_their_single_calls():
    # solve_orlicz_constants gives each request the bits of its single call on a
    # fresh space, and keeps it under that call's key: the call then adds nothing.
    # The requests read Luxemburg norms, Power included
    rng = np.random.default_rng(73)
    for trial in range(4):
        sp = random_cloud(rng, int(rng.integers(3, 7)), dim=1 + trial % 2)
        w, sigma = (10.0 ** rng.uniform(-1, 1, sp.n) for _ in range(2))
        requests = [request for p in (1.2, 2.0, 3.0)
                    for phi in (Power(p / (p - 1.0)), Power(4.0), PowerLog(2.0, 1.0).conjugate())
                    for request in ((_bump_luxemburg, w, sigma, p, phi), (_wp_luxemburg, sigma, p, phi))]
        values = solve_orlicz_constants(sp, requests)
        kept = len(sp._memo)
        for (constant, *args), value in zip(requests, values):
            single = constant(QuasiMetricSpace(sp.dist, sp.mass), *args)
            assert value == single == constant(sp, *args), (trial, constant.__name__, args[-2:])
        assert kept == len(sp._memo) == len(requests)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow warns
def test_batched_constants_keep_finite_values_only(line4):
    values = solve_orlicz_constants(line4, [(_bump_luxemburg, BIG4, BIG4, 2.0, Power(2.0)),
                                            (_bump_luxemburg, ONES4, ONES4, 2.0, Power(2.0))])
    assert values[0] == math.inf and values[1] == pytest.approx(1.0, rel=1e-9)
    assert list(line4._memo.values()) == values[1:]
    with pytest.raises(InputError, match=r"^_bump_luxemburg is inf, not a finite number$"):
        _bump_luxemburg(line4, BIG4, BIG4, 2.0, Power(2.0))
