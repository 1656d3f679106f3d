import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from conftest import random_cloud
from shtlab.errors import InputError
from shtlab.orlicz import (
    NumericConjugate,
    Power,
    PowerLog,
    YoungFunction,
    _bisect_increasing,
    alpha_p,
    luxemburg_norm,
    luxemburg_norms_over_balls,
    p_conjugate,
)
from shtlab.space import Ball, QuasiMetricSpace, ball_mask, ball_table, whole_space_ball


def qmean(space, f, mask, q):
    """Closed-form weighted q-mean over a ball: the Luxemburg oracle."""
    w = space.mass[mask]
    return float(((f[mask] ** q * w).sum() / w.sum()) ** (1.0 / q))


# ---------------------------------------------------------------- conjugates


def test_power_conjugates():
    assert Power(2).conjugate().s == 2.0
    assert Power(3).conjugate().s == 1.5
    with pytest.raises(InputError):
        Power(1).conjugate()


@given(st.floats(min_value=1.01, max_value=50))
@settings(max_examples=200, deadline=None)
def test_power_conjugate_involution(s):
    back = Power(s).conjugate().conjugate()
    assert math.isclose(back.s, s, rel_tol=1e-12)


def test_numeric_conjugate_against_grid_legendre():
    phi = PowerLog(2.0, 1.0)
    conj = phi.conjugate()
    us = np.logspace(-10, 10, 800_001)
    for t in (1e-3, 0.1, 1.0, 10.0, 1e3):
        brute = float(np.max(us * t - phi(us)))
        assert conj(t) == pytest.approx(brute, rel=1e-8)


def test_conjugate_band():
    # t <= Phi^{-1}(t) * Phibar^{-1}(t) <= 2t
    t = np.logspace(-3, 3, 61)
    for phi in (PowerLog(2.0, 1.0), PowerLog(1.5, 0.5), PowerLog(3.0, 2.0)):
        conj = phi.conjugate()
        prod = phi.inverse(t) * conj.inverse(t)
        assert np.all(prod >= t * (1 - 1e-9))
        assert np.all(prod <= 2 * t * (1 + 1e-9))
    for s in (1.5, 2.0, 4.0):
        prod = Power(s).inverse(t) * Power(s).conjugate().inverse(t)
        assert np.allclose(prod, t, rtol=1e-12)


def test_numeric_conjugate_inverse_oracles():
    # a = 0: Phibar(t) = c t**(s') with c = (s-1) s**(-s'), inverted in closed
    # form; a > 0: the round trip Phibar(Phibar^{-1}(y)) = y
    y = np.logspace(-8, 8, 161)
    for s in (1.25, 1.5, 2.0, 3.0, 6.0):
        sc = s / (s - 1.0)
        c = (s - 1.0) * s ** (-sc)
        for a in (0.0, 1.0, 2.0):
            conj = NumericConjugate(PowerLog(s, a))
            inv = conj.inverse(y)
            want = (y / c) ** (1.0 / sc) if a == 0 else y
            got = inv if a == 0 else conj(inv)
            assert np.allclose(got, want, rtol=1e-11, atol=0), (s, a)


def test_conjugate_of_numeric_conjugate_is_base():
    phi = PowerLog(2.0, 1.0)
    assert phi.conjugate().conjugate() is phi


def test_young_function_shape():
    # Phi(0) = 0, increasing, midpoint convex on a log-spaced grid
    grid = np.logspace(-4, 4, 33)
    for phi in (Power(1.0), Power(2.5), PowerLog(1.0, 1.0), PowerLog(2.0, 1.0),
                PowerLog(2.0, 1.0).conjugate()):
        assert phi(0.0) == 0.0
        vals = phi(grid)
        assert np.all(np.diff(vals) > 0)
        mid = phi((grid[:-1] + grid[1:]) / 2)
        assert np.all(mid <= (vals[:-1] + vals[1:]) / 2 * (1 + 1e-9))


def test_positive_part_scalar_in_float_out():
    conj = NumericConjugate(PowerLog(2.0, 1.0))
    for fn in (conj, conj.derivative, conj.inverse, PowerLog(2.0, 1.0).inverse):
        for t in (2.0, 0.0, -1.0):
            assert type(fn(t)) is float
        arr = fn(np.array([0.0, 2.0]))
        assert isinstance(arr, np.ndarray) and arr[0] == 0.0 and arr[1] == fn(2.0)


def test_unit_exponent_derivatives_take_the_general_formula():
    t = np.array([0.0, 0.5, 1.0, 3.0, 1e300, np.inf])
    assert np.array_equal(Power(1.0).derivative(t), np.ones_like(t))
    ln = np.log(math.e + t[:-1])
    expected = ln**2.0 + 2.0 * t[:-1] * ln / (math.e + t[:-1])
    assert np.array_equal(PowerLog(1.0, 2.0).derivative(t[:-1]), expected)


def test_powerlog_parameter_validation():
    with pytest.raises(InputError):
        PowerLog(0.5, 1.0)
    with pytest.raises(InputError):
        PowerLog(2.0, -1.0)
    with pytest.raises(InputError):
        Power(0.9)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Power(math.nan), "1 <= s < inf, got nan"),
        (lambda: Power(math.inf), "1 <= s < inf, got inf"),
        (lambda: PowerLog(math.nan, 1.0), "1 <= s < inf, got nan"),
        (lambda: PowerLog(math.inf, 1.0), "1 <= s < inf, got inf"),
        (lambda: PowerLog(2.0, math.nan), "0 <= a < inf, got nan"),
        (lambda: PowerLog(2.0, math.inf), "0 <= a < inf, got inf"),
    ],
)
def test_young_parameters_must_be_finite(make, message):
    with pytest.raises(InputError, match=message):
        make()


def test_numeric_conjugate_needs_a_power_log_base():
    with pytest.raises(InputError, match="needs a power-log base, got power:3"):
        NumericConjugate(Power(3.0))


def test_mass_ratio_overflow_is_refused():
    # mu_max / mass_min overflows, so the bracket M / Phi^{-1}(ratio) would be 0
    sp = QuasiMetricSpace([[0.0, 1.0], [1.0, 0.0]], [1e-200, 1e200])
    for phi in (Power(2.0), PowerLog(2.0, 1.0).conjugate()):
        with pytest.raises(InputError, match="mass ratio mu_max/mass_min"):
            luxemburg_norm(sp, [1.0, 1.0], Ball(0, 2.0), phi)


# ---------------------------------------------------------------- exponents


@given(st.floats(min_value=1.0001, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_p_conjugate_identity(p):
    assert 1 / p + 1 / p_conjugate(p) == pytest.approx(1.0, rel=1e-12)


def test_p_conjugate_range():
    for bad in (1.0, 0.5, -2.0, math.inf):
        with pytest.raises(InputError):
            p_conjugate(bad)


# ---------------------------------------------------------------- norms


def test_luxemburg_spike_closed_form(line4):
    f = np.array([2.0, 0.0, 0.0, 0.0])
    assert luxemburg_norm(line4, f, whole_space_ball(line4), Power(2)) == pytest.approx(
        1.0, rel=1e-9
    )


def test_luxemburg_constant_function(line4):
    for q in (1.0, 1.5, 2.0, 10.0):
        got = luxemburg_norm(line4, np.full(4, 3.25), Ball(1, 2.0), Power(q))
        assert got == pytest.approx(3.25, rel=1e-9)
    got = luxemburg_norm(line4, np.full(4, 2.0), Ball(0, 2.0), PowerLog(2.0, 1.0))
    # constant c has norm c / Phi^{-1}(1)
    assert got == pytest.approx(2.0 / float(PowerLog(2.0, 1.0).inverse(1.0)), rel=1e-9)


def test_luxemburg_zero_function(line4):
    assert luxemburg_norm(line4, np.zeros(4), Ball(0, 2.0), Power(2)) == 0.0


def test_luxemburg_matches_qmean_oracle():
    rng = np.random.default_rng(41)
    for trial in range(12):
        sp = random_cloud(rng, int(rng.integers(3, 10)), dim=1 + trial % 2)
        tbl = ball_table(sp)
        f = 10.0 ** rng.uniform(-2, 2, sp.n)
        ball = tbl.balls[int(rng.integers(0, tbl.m))]
        mask = ball_mask(sp, ball)
        for q in (1.0, 1.5, 2.0, 3.0, 10.0):
            got = luxemburg_norm(sp, f, ball, Power(q))
            assert got == pytest.approx(qmean(sp, f, mask, q), rel=1e-9)


def test_luxemburg_power_one_is_average(line4):
    rng = np.random.default_rng(2)
    f = rng.uniform(0, 5, 4)
    ball = Ball(0, 3.0)
    mask = ball_mask(line4, ball)
    avg = float((f * line4.mass)[mask].sum() / line4.mass[mask].sum())
    assert luxemburg_norm(line4, f, ball, Power(1)) == pytest.approx(avg, rel=1e-9)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_luxemburg_homogeneity(c):
    sp = random_cloud(np.random.default_rng(7), 6)
    f = np.array([0.3, 1.2, 0.0, 4.0, 0.9, 2.2])
    ball = whole_space_ball(sp)
    base = luxemburg_norm(sp, f, ball, PowerLog(2.0, 1.0))
    scaled = luxemburg_norm(sp, c * f, ball, PowerLog(2.0, 1.0))
    assert scaled == pytest.approx(c * base, rel=1e-9)


def test_norm_monotone_in_exponent_and_pointwise_phi():
    rng = np.random.default_rng(13)
    sp = random_cloud(rng, 8)
    f = 10.0 ** rng.uniform(-1, 1, 8)
    ball = whole_space_ball(sp)
    qs = [1.0, 1.5, 2.0, 3.0, 10.0]
    norms = [luxemburg_norm(sp, f, ball, Power(q)) for q in qs]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(norms, norms[1:]))
    # pointwise-ordered pair: t**2 <= t**2 * log(e+t)
    lo = luxemburg_norm(sp, f, ball, Power(2))
    hi = luxemburg_norm(sp, f, ball, PowerLog(2.0, 1.0))
    assert lo <= hi * (1 + 1e-9)


def test_sweep_matches_bisection_oracle():
    # independent oracle: per (row, ball), bisect the Luxemburg constraint,
    # increasing in x = 1/lam, for its unit level
    rng = np.random.default_rng(3)
    sp = random_cloud(rng, 9)
    tbl = ball_table(sp)
    fmat = 10.0 ** rng.uniform(-1, 1, size=(3, 9))
    for phi in (Power(2.0), PowerLog(2.0, 1.0)):
        got = luxemburg_norms_over_balls(sp, fmat, phi)
        want = np.zeros_like(got)
        for i, f in enumerate(fmat):
            for b in range(tbl.m):
                fb, wb = f[tbl.member[b]], sp.mass[tbl.member[b]]

                def constraint(x):
                    return (phi(fb * x) * wb).sum() / tbl.mu[b]

                x = _bisect_increasing(constraint, 1.0, 1.0 / fb.max())
                want[i, b] = 1.0 / x
        assert np.allclose(got, want, rtol=1e-10, atol=0)


class CountingYoung(YoungFunction):
    """Delegates to ``base`` and counts the elements Phi is evaluated on."""

    def __init__(self, base):
        self.base = base
        self.elems = 0

    def __call__(self, t):
        self.elems += np.size(t)
        return self.base(t)

    def inverse(self, y):
        return self.base.inverse(y)


def _repeated_rows_case():
    rng = np.random.default_rng(29)
    sp = random_cloud(rng, 7, dim=2)
    fmat = 10.0 ** rng.uniform(-1, 1, size=(3, 7))
    fmat[1, [0, 4]] = 0.0
    fmat[2] = 0.0
    return sp, fmat


def test_sweep_of_repeated_rows_is_tiled():
    sp, fmat = _repeated_rows_case()
    for phi in (Power(2.0), PowerLog(2.0, 1.0), PowerLog(2.0, 1.0).conjugate()):
        once = luxemburg_norms_over_balls(sp, fmat, phi)
        twice = luxemburg_norms_over_balls(sp, np.vstack([fmat, fmat]), phi)
        assert np.array_equal(twice, np.tile(once, (2, 1)))


def test_sweep_solves_each_distinct_pair_once():
    sp, fmat = _repeated_rows_case()
    once, twice = CountingYoung(PowerLog(2.0, 1.0)), CountingYoung(PowerLog(2.0, 1.0))
    luxemburg_norms_over_balls(sp, fmat, once)
    luxemburg_norms_over_balls(sp, np.vstack([fmat, fmat]), twice)
    assert once.elems > 0 and twice.elems == once.elems


# ---------------------------------------------------------------- Hoelder


def test_generalized_holder_local():
    rng = np.random.default_rng(17)
    for trial in range(10):
        sp = random_cloud(rng, int(rng.integers(3, 9)))
        tbl = ball_table(sp)
        f = 10.0 ** rng.uniform(-1.5, 1.5, sp.n)
        g = 10.0 ** rng.uniform(-1.5, 1.5, sp.n)
        ball = tbl.balls[int(rng.integers(0, tbl.m))]
        mask = ball_mask(sp, ball)
        lhs = float((f * g * sp.mass)[mask].sum() / sp.mass[mask].sum())
        for phi in (Power(2.0), Power(1.5), PowerLog(2.0, 1.0)):
            conj = phi.conjugate()
            rhs = 2 * luxemburg_norm(sp, f, ball, phi) * luxemburg_norm(sp, g, ball, conj)
            assert lhs <= rhs * (1 + 1e-9)


# ---------------------------------------------------------------- alpha_p


def test_alpha_p_power_examples():
    assert alpha_p(Power(1), 2.0) == 1.0
    assert alpha_p(Power(1.5), 2.0) == 2.0
    assert alpha_p(Power(2), 2.0) == math.inf
    assert alpha_p(Power(3), 2.0) == math.inf


def test_alpha_p_power_against_quadrature():
    rng = np.random.default_rng(19)
    for _ in range(8):
        p = float(rng.uniform(1.3, 4.0))
        s = float(rng.uniform(1.0, p - 0.2))
        direct, _ = integrate.quad(lambda t: t ** (s - p - 1.0), 1, np.inf)
        assert alpha_p(Power(s), p) == pytest.approx(direct, rel=1e-9)


def test_alpha_p_powerlog_against_quadrature():
    cases = [(1.5, 1.0, 3.0), (2.0, 1.0, 3.5), (1.2, 2.0, 2.0), (2.0, 0.5, 2.5)]
    for s, a, p in cases:
        direct, _ = integrate.quad(
            lambda t: t**s * np.log(np.e + t) ** a / t ** (p + 1.0), 1, np.inf, limit=800
        )
        assert alpha_p(PowerLog(s, a), p) == pytest.approx(direct, rel=1e-7)


def test_alpha_p_powerlog_divergent():
    assert alpha_p(PowerLog(2.0, 1.0), 2.0) == math.inf
    assert alpha_p(PowerLog(3.0, 0.5), 2.0) == math.inf


def test_alpha_p_numeric_conjugate_unsupported():
    with pytest.raises(InputError):
        alpha_p(NumericConjugate(PowerLog(2.0, 1.0)), 2.0)
