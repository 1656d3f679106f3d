import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from conftest import ball_norm, open_ball, random_cloud, whole_ball
from shtlab import orlicz, space
from shtlab.errors import InputError, NumericalError
from shtlab.orlicz import (
    NumericConjugate,
    Power,
    PowerLog,
    YoungFunction,
    alpha_p,
    luxemburg_norms_over_balls,
    p_conjugate,
)
from shtlab.space import Ball, QuasiMetricSpace, ball_table


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


def test_power_log_inversions_round_trip():
    # Phi'(argmax(t)) = t and Phi(Phi^{-1}(y)) = y; at a = 0 against the closed
    # forms argmax(t) = (t/s)**(1/(s-1)) and Phi^{-1}(y) = y**(1/s)
    t = np.logspace(-8, 8, 1601)
    for s in (1.25, 1.5, 2.0, 3.0, 6.0):
        for a in (0.0, 0.5, 1.0, 2.0):
            phi = PowerLog(s, a)
            u, inv = phi.conjugate().derivative(t), phi.inverse(t)
            if a == 0:
                pairs = ((u, (t / s) ** (1.0 / (s - 1.0))), (inv, t ** (1.0 / s)))
            else:
                pairs = ((phi.derivative(u), t), (phi(inv), t))
            for got, want in pairs:
                assert np.allclose(got, want, rtol=1e-13, atol=0), (s, a)


def test_power_log_solves_are_batch_independent():
    # every element is solved on its own, so a batch gives the scalar bits
    rng = np.random.default_rng(43)
    # at s = 1, argmax(t) ~ exp(t) leaves the float range well before t = 1e8
    for s, a, top in ((1.25, 1.0, 8), (2.0, 0.5, 8), (6.0, 2.0, 8), (1.0, 1.0, 2)):
        x = 10.0 ** rng.uniform(-8, top, 400)
        phi = PowerLog(s, a)
        conj = phi.conjugate()
        for fn in (phi.inverse, conj, conj.derivative, conj.inverse):
            assert np.array_equal(fn(x), [fn(float(v)) for v in x]), (s, a, fn)


def test_unit_exponent_conjugate():
    # s = 1: Phi'(0) = 1, so for t <= 1 the argmax is u = 0 and Phibar(t) = 0,
    # without a warning; a = 0 as well makes the conjugate degenerate
    t = np.array([0.0, 1e-300, 0.5, 1.0])
    for a in (0.5, 1.0, 2.0):
        conj = PowerLog(1.0, a).conjugate()
        assert np.array_equal(conj(t), np.zeros(4))
        assert np.array_equal(conj.derivative(t), np.zeros(4))
        above = np.array([1.0 + 2.0**-52, 1.5, 3.0])
        u = conj.derivative(above)
        assert np.all(u > 0) and np.allclose(PowerLog(1.0, a).derivative(u), above, rtol=1e-13)
        assert np.allclose(conj.inverse(conj(above[1:])), above[1:], rtol=1e-12)
    # u* near exp(29), far from the start at 0: the domain bracket holds it
    u = PowerLog(1.0, 1.0).conjugate().derivative(30.0)
    assert abs(math.log(u) - 29.0) < 0.1
    assert PowerLog(1.0, 1.0).derivative(u) == pytest.approx(30.0, rel=1e-13)
    with pytest.raises(InputError, match="conjugate of powerlog:1:0 degenerates"):
        PowerLog(1.0, 0.0).conjugate()


def test_solver_failures_raise_numerical_error(monkeypatch, line4):
    conj = PowerLog(2.0, 1.0).conjugate()
    with pytest.raises(NumericalError, match=r"conjugate\(powerlog:1.0001:1\) argmax: root u"):
        PowerLog(1.0001, 1.0).conjugate()(1e8)  # log u* is near 1.8e5
    monkeypatch.setattr(orlicz, "MAX_ITER", 2)
    for fn, name in ((conj, "argmax"), (conj.inverse, "inverse")):
        with pytest.raises(NumericalError, match=rf"powerlog:2:1\) {name}: Newton solve did not"):
            fn(30.0)
    with pytest.raises(NumericalError, match="powerlog:2:1 inverse: Newton"):
        PowerLog(2.0, 1.0).inverse(30.0)
    with pytest.raises(NumericalError, match="Luxemburg norm under power:2: bracket wider"):
        luxemburg_norms_over_balls(line4, [1.0, 2.0, 3.0, 4.0], Power(2.0))


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
            ball_norm(sp, [1.0, 1.0], Ball(0, 2.0), phi)


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
    assert ball_norm(line4, f, whole_ball(line4), Power(2)) == pytest.approx(
        1.0, rel=1e-9
    )


def test_luxemburg_constant_function(line4):
    for q in (1.0, 1.5, 2.0, 10.0):
        got = ball_norm(line4, np.full(4, 3.25), Ball(1, 2.0), Power(q))
        assert got == pytest.approx(3.25, rel=1e-9)
    got = ball_norm(line4, np.full(4, 2.0), Ball(0, 2.0), PowerLog(2.0, 1.0))
    # constant c has norm c / Phi^{-1}(1)
    assert got == pytest.approx(2.0 / float(PowerLog(2.0, 1.0).inverse(1.0)), rel=1e-9)


def test_luxemburg_zero_function(line4):
    assert ball_norm(line4, np.zeros(4), Ball(0, 2.0), Power(2)) == 0.0


def test_luxemburg_matches_qmean_oracle():
    rng = np.random.default_rng(41)
    for trial in range(12):
        sp = random_cloud(rng, int(rng.integers(3, 10)), dim=1 + trial % 2)
        tbl = ball_table(sp)
        f = 10.0 ** rng.uniform(-2, 2, sp.n)
        ball = tbl.ball(int(rng.integers(0, tbl.m)))
        mask = open_ball(sp, ball.center, ball.radius)
        for q in (1.0, 1.5, 2.0, 3.0, 10.0):
            got = ball_norm(sp, f, ball, Power(q))
            assert got == pytest.approx(qmean(sp, f, mask, q), rel=1e-9)


def test_luxemburg_power_one_is_average(line4):
    rng = np.random.default_rng(2)
    f = rng.uniform(0, 5, 4)
    ball = Ball(0, 3.0)
    mask = open_ball(line4, ball.center, ball.radius)
    avg = float((f * line4.mass)[mask].sum() / line4.mass[mask].sum())
    assert ball_norm(line4, f, ball, Power(1)) == pytest.approx(avg, rel=1e-9)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_luxemburg_homogeneity(c):
    sp = random_cloud(np.random.default_rng(7), 6)
    f = np.array([0.3, 1.2, 0.0, 4.0, 0.9, 2.2])
    ball = whole_ball(sp)
    base = ball_norm(sp, f, ball, PowerLog(2.0, 1.0))
    scaled = ball_norm(sp, c * f, ball, PowerLog(2.0, 1.0))
    assert scaled == pytest.approx(c * base, rel=1e-9)


def test_norm_monotone_in_exponent_and_pointwise_phi():
    rng = np.random.default_rng(13)
    sp = random_cloud(rng, 8)
    f = 10.0 ** rng.uniform(-1, 1, 8)
    ball = whole_ball(sp)
    qs = [1.0, 1.5, 2.0, 3.0, 10.0]
    norms = [ball_norm(sp, f, ball, Power(q)) for q in qs]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(norms, norms[1:]))
    # pointwise-ordered pair: t**2 <= t**2 * log(e+t)
    lo = ball_norm(sp, f, ball, Power(2))
    hi = ball_norm(sp, f, ball, PowerLog(2.0, 1.0))
    assert lo <= hi * (1 + 1e-9)


def _scalar_bisect(g, y, x0):
    """x > 0 with g(x) = y for an increasing scalar g: brackets x0 by factors
    of 2, then bisects log x to 1e-14; shares no code with shtlab.orlicz."""
    lo = hi = x0
    while g(lo) > y:
        lo /= 2.0
    while g(hi) < y:
        hi *= 2.0
    a, b = math.log(lo), math.log(hi)
    while b - a > 1e-14:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if g(math.exp(mid)) < y else (a, mid)
    return math.exp(0.5 * (a + b))


def _bisection_norms(sp, fmat, phi):
    """Independent oracle: per (row, ball), bisect the Luxemburg constraint,
    increasing in x = 1/lam, for its unit level."""
    tbl = ball_table(sp)
    want = np.zeros((len(fmat), tbl.m))
    for i, f in enumerate(fmat):
        for b in range(tbl.m):
            fb, wb = f[tbl.member[b]], sp.mass[tbl.member[b]]

            def constraint(x):
                return (phi(fb * x) * wb).sum() / tbl.mu[b]

            want[i, b] = 1.0 / _scalar_bisect(constraint, 1.0, 1.0 / fb.max())
    return want


def test_sweep_matches_bisection_oracle():
    rng = np.random.default_rng(3)
    sp = random_cloud(rng, 9)
    fmat = 10.0 ** rng.uniform(-1, 1, size=(3, 9))
    # PowerLog(1, 1)'s conjugate vanishes on [0, 1], a kink inside some brackets
    for phi in (Power(2.0), PowerLog(2.0, 1.0), NumericConjugate(PowerLog(2.0, 1.0)),
                PowerLog(1.0, 1.0).conjugate()):
        got = luxemburg_norms_over_balls(sp, fmat, phi)
        assert np.allclose(got, _bisection_norms(sp, fmat, phi), rtol=1e-10, atol=0), phi


def test_conjugate_is_zero_where_its_argmax_underflows(line4):
    # base'(u) = t at t = 0.9 has u* near e^-1054, far below exp(-LOG_U_MAX): the
    # conjugate (at most u* t) and its slope u* are 0 in floats, and the sweep over
    # members that reach such t still has its norms; an argmax above exp(LOG_U_MAX)
    # still raises
    conj = PowerLog(1.0001, 0.5).conjugate()
    assert conj(0.9) == 0.0 and conj.derivative(0.9) == 0.0
    fmat = np.array([[1.0, 2.0, 3.0, 4.0]])
    got = luxemburg_norms_over_balls(line4, fmat, conj)
    assert np.allclose(got, _bisection_norms(line4, fmat, conj), rtol=1e-10, atol=0)
    with pytest.raises(NumericalError, match=r"powerlog:1.0001:0.5\) argmax: root u lies beyond"):
        conj(100.0)


def test_power_batches_keep_their_bits_in_one_illinois_loop():
    # a Power root depends on its own (stack, chunk) batch and not on the others
    # in its Illinois loop: one _norms_core call on several stacks and phis gives
    # the bits of each row solved alone.  Each stack repeats every row once, and
    # the budget makes a chunk two rows, so one row twice, with that row's
    # distinct pairs.  Chunk index i is one loop, which holds the Power batches
    # of every stack with an i-th chunk, one per Power phi.
    loops, illinois = [], orlicz._illinois

    def counted(at, xlo, xhi, sizes, what):
        loops.append(len(sizes))
        return illinois(at, xlo, xhi, sizes, what)

    # Power(1.2)'s conjugate exponent 1.2/0.2 rounds to 6.000000000000001
    phis = [Power(2.0), Power(1.2).conjugate(), Power(1.5), PowerLog(2.0, 1.0)]
    rng = np.random.default_rng(71)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orlicz, "_illinois", counted)
        for trial in range(6):
            sp = random_cloud(rng, int(rng.integers(4, 8)), dim=1 + trial % 2)
            tbl = ball_table(sp)
            patch.setattr(space, "WORKSPACE_ELEMENTS", 2 * tbl.member.size)
            stacks = [10.0 ** rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 4)), sp.n)) for _ in range(3)]
            stacks[0][0, rng.integers(sp.n)] = 0.0
            core = functools.partial(orlicz._norms_core, tbl.member, tbl.weighted, tbl.mu, sp.mass)
            loops.clear()
            together = core([(np.repeat(rows, 2, axis=0), phis) for rows in stacks])
            chunks = [len(rows) for rows in stacks]
            assert loops == [3 * sum(c > i for c in chunks) for i in range(max(chunks))], (loops, chunks)
            for rows, job in zip(stacks, together):
                for phi, norms in zip(phis, job):
                    alone = [core([(row[None, :], [phi])])[0][0][0] for row in rows]
                    assert np.array_equal(norms, np.repeat(alone, 2, axis=0)), (trial, phi)


def test_power_sums_on_the_support_have_the_dense_bits():
    # Phi is evaluated on the support only and summed by numpy's row sum of a
    # buffer that is zero off it: the bits of the dense form at every n.  From
    # n = 8 numpy sums a row pairwise, so a sequential sum of the support differs.
    powers = [Power(2.0), Power(1.5), Power(1.2).conjugate()]  # the last is 6.000000000000001
    rng = np.random.default_rng(83)
    for n in (4, 7, 8, 9, 17):
        f = 10.0 ** rng.uniform(-1.5, 1.5, size=(60, n))
        f[rng.random(f.shape) < 0.4] = 0.0
        f[0] = 0.0
        w, x = 10.0 ** rng.uniform(-1, 1, size=f.shape), rng.uniform(-2, 2, size=len(f))
        sums = orlicz._power_sums(f, w, powers, [0, 10, 35, 60])(x)
        for phi, rows in zip(powers, (slice(0, 10), slice(10, 35), slice(35, 60))):
            dense = (phi(f[rows] / np.exp(x[rows])[:, None]) * w[rows]).sum(axis=1)
            assert np.array_equal(sums[rows], dense), (n, phi)


class CountingYoung(YoungFunction):
    """Delegates to ``base`` and counts the calls of Phi and the elements it is evaluated on."""

    def __init__(self, base):
        self.base = base
        self.calls = self.elems = 0

    def __call__(self, t):
        self.calls += 1
        self.elems += np.size(t)
        return self.base(t)

    def derivative(self, t):
        return self.base.derivative(t)

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


def test_conjugate_sweep_agrees_with_single_ball_norms():
    # each power-log root is its own Newton solve from its own bracket and
    # start, so the sweep has the bits of the single-ball norms.  Power roots
    # come from a batch solve and may differ from them by about REL_TOL.
    rng = np.random.default_rng(59)
    for trial in range(6):
        sp = random_cloud(rng, int(rng.integers(3, 8)), dim=1 + trial % 2)
        tbl = ball_table(sp)
        fmat = 10.0 ** rng.uniform(-1.5, 1.5, size=(2, sp.n))
        fmat[1, rng.integers(sp.n)] = 0.0
        balls = [tbl.ball(b) for b in range(tbl.m)]
        for s in (1.0, 1.5, 2.0, 3.0):
            for phi in (PowerLog(s, 1.0), PowerLog(s, 1.0).conjugate()):
                sweep = luxemburg_norms_over_balls(sp, fmat, phi)
                for f, row in zip(fmat, sweep):
                    single = [ball_norm(sp, f, ball, phi) for ball in balls]
                    assert np.array_equal(single, row), phi


def test_newton_luxemburg_solves_take_few_evaluations():
    # Phi(M/lam) = 1 at a singleton ball's root, the upper end of its bracket.
    # The first Newton point from the midpoint crosses that end, which was
    # never evaluated, so it moves there and the next step freezes it; with a
    # midpoint step there instead, most took 22-32 evaluations.  One evaluation
    # is one call of Phi, and a single-ball solve has the bits of its sweep element.
    rng = np.random.default_rng(67)
    for trial in range(6):
        sp = random_cloud(rng, 6, dim=1 + trial % 2)
        tbl = ball_table(sp)
        singleton = tbl.member.sum(axis=1) == 1
        f = 10.0 ** rng.uniform(-1.5, 1.5, sp.n)
        for phi in (PowerLog(2.0, 1.0), PowerLog(1.5, 1.0).conjugate(), PowerLog(1.0, 1.0).conjugate()):
            for b in range(tbl.m):
                counting = CountingYoung(phi)
                ball_norm(sp, f, tbl.ball(b), counting)
                assert counting.calls <= (4 if singleton[b] else 6), (phi, b, counting.calls)


# ---------------------------------------------------------------- Hoelder


def test_generalized_holder_local():
    rng = np.random.default_rng(17)
    for trial in range(10):
        sp = random_cloud(rng, int(rng.integers(3, 9)))
        tbl = ball_table(sp)
        f = 10.0 ** rng.uniform(-1.5, 1.5, sp.n)
        g = 10.0 ** rng.uniform(-1.5, 1.5, sp.n)
        ball = tbl.ball(int(rng.integers(0, tbl.m)))
        mask = open_ball(sp, ball.center, ball.radius)
        lhs = float((f * g * sp.mass)[mask].sum() / sp.mass[mask].sum())
        for phi in (Power(2.0), Power(1.5), PowerLog(2.0, 1.0)):
            conj = phi.conjugate()
            rhs = 2 * ball_norm(sp, f, ball, phi) * ball_norm(sp, g, ball, conj)
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


def test_alpha_p_refuses_power_log():
    # the closed form serves the power-bump route; no other family has a tail path
    with pytest.raises(InputError, match=r"power family only, got powerlog:1\.5:1$"):
        alpha_p(PowerLog(1.5, 1.0), 2.0)


def test_alpha_p_numeric_conjugate_unsupported():
    with pytest.raises(InputError):
        alpha_p(NumericConjugate(PowerLog(2.0, 1.0)), 2.0)
