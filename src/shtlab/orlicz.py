"""Young functions, conjugate pairs, local Luxemburg norms, and the power tail integral.

Implemented families:

* ``Power(s)``      -- Phi(t) = t**s, s >= 1.  Conjugate by the exact exponent
  duality s -> s/(s-1) (the convention used throughout the weight constants;
  the exact Legendre conjugate differs by a bounded factor only).
* ``PowerLog(s, a)`` -- Phi(t) = t**s * log(e + t)**a, s >= 1, a >= 0.  Convex:
  the cross term of the second derivative dominates both negative terms.
* ``NumericConjugate(base)`` -- the Legendre conjugate sup_{u>0} (u*t - base(u))
  of a ``PowerLog`` base, evaluated at the root of base'(u) = t.  Its conjugate
  is ``base`` again (biconjugation of a convex function).

Every power-log inversion -- Phi^{-1}, the Legendre argmax and Phibar^{-1} --
is a Newton solve in log u on one closed-form kernel (``_newton_log``).

Any conjugate pair built here satisfies the band t <= Phi^{-1}(t) *
Phibar^{-1}(t) <= 2t; the Power convention pair sits at the lower edge.

The local Luxemburg norm over a ball B is

    ||f||_{Phi,B} = inf{ lam > 0 : (1/mu(B)) sum_{y in B} Phi(f[y]/lam) m[y] <= 1 }.

The constraint is continuous and strictly decreasing in lam wherever positive,
so the infimum is the unique root.  With M = max_B f and mass_min the space's
smallest mass, it is bracketed by

    M / Phi^{-1}(mu(B)/mass_min)  <=  ||f||_{Phi,B}  <=  M / Phi^{-1}(1).

Power-log roots are Newton solves in log(lam), each from its own bracket, in
the module's one safeguarded Newton loop (``_newton``); a ``Power`` root comes
from Illinois-damped false position (``_illinois``), one loop per chunk index,
and depends on its own batch of distinct pairs, never on what else shares the
loop.  Its constraint evaluates Phi on the support of f only; off it the dense
form holds exact zeros, and the same numpy row sum keeps the bits (``_power_sums``).

Root-finding tolerances are the module constants below; each checker's
headroom sits in the check it serves (see the README).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .space import QuasiMetricSpace, as_fields, ball_table, rows_per_chunk

__all__ = [
    "YoungFunction",
    "Power",
    "PowerLog",
    "NumericConjugate",
    "p_conjugate",
    "luxemburg_norms_over_balls",
    "alpha_p",
]


REL_TOL = 1e-12       # relative bracket width ending a Luxemburg solve
LOG_STEP = 1e-9       # Newton step in log u ending a power-log inversion
MAX_ITER = 200        # cap on root-finding iterations
LOG_U_MAX = 700.0     # power-log roots are sought for |log u| <= LOG_U_MAX


def p_conjugate(p: float) -> float:
    """Dual exponent p' = p/(p-1); requires 1 < p < inf."""
    if not (1.0 < p < math.inf):
        raise InputError(f"exponent p must lie in (1, inf), got {p}")
    return p / (p - 1.0)


def _log_kernel(v, c, alpha, beta, a, ly=0.0):
    """log(u**c * L**(a-1) * (alpha*L + beta*r)) - ly and its slope in v = log u.

    L = log(e + u) and r = u/(e + u), so that dL/dv = r and dr/dv = r*(1 - r).  (c, alpha, beta) = (s, 1, 0) gives PowerLog(s, a),
    (s-1, s, a) its derivative and (s, s-1, a) u*Phi'(u) - Phi(u).  L - 1
    goes through log1p, so the value keeps its digits as u -> 0: at s = 1 the
    log of the derivative tends to 0 there, and so does its slope.
    """
    u = np.exp(v)
    m = np.log1p(u / math.e)  # L - 1
    r = u / (math.e + u)
    g = alpha * (1.0 + m) + beta * r
    log_g = np.log1p(m + beta * r) if alpha == 1 else np.log(g)
    value = c * v + (a - 1.0) * np.log1p(m) + log_g - ly
    slope = c + (a - 1.0) * r / (1.0 + m) + r * (alpha + beta * (1.0 - r)) / g
    return value, slope


@functools.lru_cache(maxsize=256)
def _domain_ends(c, alpha, beta, a, v_max):
    """The kernel's values at v = -v_max and v = v_max."""
    return tuple(_log_kernel(np.array([-v_max, v_max]), c, alpha, beta, a)[0])


def _newton(func, x, lo, hi, what, *data):
    """Safeguarded Newton, as Numerical Recipes ``rtsafe``, for the roots of g
    increasing in x from starts x in brackets [lo, hi], 1-d arrays it overwrites.

    ``func(x, *data)`` gives g and g' of the active elements; ``data`` are
    per-element arrays compacted with them.
    Every evaluation shrinks its element's bracket [lo, hi].  A Newton point
    outside the bracket moves to the end it crossed if that end was never
    evaluated, and to the bracket's midpoint otherwise.  An element is frozen
    once its Newton step is at most LOG_STEP; convergence is quadratic, so that
    last step leaves an error far below one ulp.  Elements never interact, so a
    batch gives the bits of one call per element from the same starts.
    """
    idx = np.arange(x.size)
    root = np.empty(x.size)
    seen_lo, seen_hi = np.zeros((2, x.size), dtype=bool)
    for _ in range(MAX_ITER):
        g, dg = func(x, *data)
        with np.errstate(all="ignore"):  # a step that is not finite leaves the bracket
            step = g / dg
        below, above = g < 0, g > 0
        np.copyto(lo, x, where=below)
        np.copyto(hi, x, where=above)
        seen_lo |= below
        seen_hi |= above
        x -= step
        done = np.abs(step) <= LOG_STEP
        if done.any():  # frozen even where a sub-ulp step ends on lo or hi
            root[idx[done]] = x[done]
            if done.all():
                return root
            idx, x, lo, hi, seen_lo, seen_hi, *data = (
                arr[~done] for arr in (idx, x, lo, hi, seen_lo, seen_hi, *data))
        out = ~((x > lo) & (x < hi))
        if out.any():
            end = np.where(~seen_hi & (x >= hi), hi, np.where(~seen_lo & (x <= lo), lo, 0.5 * (lo + hi)))
            np.copyto(x, end, where=out)
    raise NumericalError(f"{what}: Newton solve did not converge in {MAX_ITER} steps")


def _newton_log(y, c, alpha, beta, a, what, floor=False):
    """Solve u**c * L**(a-1) * (alpha*L + beta*r) = y for v = log u (1-d y > 0).

    ``_newton`` on ``_log_kernel`` from the root for a = 0, clipped to the
    domain.  The kernel increases in v, so its values at v = +-LOG_U_MAX show
    at once that every root lies in that domain, each element's starting
    bracket.  With ``floor``, a root below the domain is v = -inf (u = 0); any
    other root beyond it raises.
    """
    ly = np.log(y)
    f_min, f_max = _domain_ends(c, alpha, beta, a, LOG_U_MAX)
    if (low := ly.min() < f_min) and floor:
        v, keep = np.full(y.size, -np.inf), ly >= f_min
        if keep.any():
            v[keep] = _newton_log(y[keep], c, alpha, beta, a, what)
        return v
    if low or ly.max() > f_max:
        raise NumericalError(f"{what}: root u lies beyond exp(+-{LOG_U_MAX:g})")
    v = np.clip((ly - math.log(alpha or beta)) / (c or 1.0), -LOG_U_MAX, LOG_U_MAX)
    return _newton(lambda v, ly: _log_kernel(v, c, alpha, beta, a, ly),
                   v, np.full(v.size, -LOG_U_MAX), np.full(v.size, LOG_U_MAX), what, ly)


def _positive_part(func, t, floor=0.0):
    """func on the entries of t above floor, 0 elsewhere; a scalar gives a float."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    pos = t > floor
    if pos.any():
        out[pos] = func(t[pos])
    return out if out.ndim else float(out)


class YoungFunction:
    """Convex increasing Phi with Phi(0) = 0 and Phi(t) -> inf."""

    label: str = "young"

    def __call__(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    def inverse(self, y):  # pragma: no cover - abstract
        raise NotImplementedError

    def conjugate(self) -> "YoungFunction":  # pragma: no cover - abstract
        raise NotImplementedError

    def derivative(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    def value_and_slope(self, t):
        """(Phi(t), Phi'(t)) of an array t, from one evaluation where Phi is a solve."""
        return self(t), self.derivative(t)

    def __repr__(self):
        return self.label


@dataclass(frozen=True, repr=False)
class Power(YoungFunction):
    s: float

    def __post_init__(self):
        if not 1 <= self.s < math.inf:
            raise InputError(f"power exponent must satisfy 1 <= s < inf, got {self.s}")

    @property
    def label(self):
        return f"power:{self.s:g}"

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.s

    def inverse(self, y):
        return np.asarray(y, dtype=float) ** (1.0 / self.s)

    def derivative(self, t):
        return self.s * np.asarray(t, dtype=float) ** (self.s - 1.0)

    def conjugate(self) -> "Power":
        if self.s <= 1:
            raise InputError(
                f"conjugate of power:{self.s:g} degenerates; exponent must exceed 1"
            )
        return Power(self.s / (self.s - 1.0))


@dataclass(frozen=True, repr=False)
class PowerLog(YoungFunction):
    s: float
    a: float

    def __post_init__(self):
        if not 1 <= self.s < math.inf:
            raise InputError(f"power-log exponent must satisfy 1 <= s < inf, got {self.s}")
        if not 0 <= self.a < math.inf:
            raise InputError(f"power-log log-exponent must satisfy 0 <= a < inf, got {self.a}")

    @property
    def label(self):
        return f"powerlog:{self.s:g}:{self.a:g}"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t**self.s * np.log(math.e + t) ** self.a

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        ln = np.log(math.e + t)
        lead = self.s * t ** (self.s - 1.0) * ln**self.a
        return lead + self.a * t**self.s * ln ** (self.a - 1.0) / (math.e + t)

    def inverse(self, y):
        what = f"{self.label} inverse"
        return _positive_part(lambda yp: np.exp(_newton_log(yp, self.s, 1.0, 0.0, self.a, what)), y)

    def conjugate(self) -> "NumericConjugate":
        return NumericConjugate(self)


@dataclass(frozen=True, repr=False)
class NumericConjugate(YoungFunction):
    """Legendre conjugate of a power-log Young function.

    Phibar(t) = u*t - Phi(u*) at the stationary point Phi'(u*) = t, and
    Phibar'(t) = u*.  Phibar(Phi'(u)) = u*Phi'(u) - Phi(u) increases in u, so
    Phibar^{-1}(y) is Phi'(u) at the root of u*Phi'(u) - Phi(u) = y, with no
    argmax nested in it.  Both roots come from ``_newton_log``.  At s = 1,
    Phi'(0) = 1, so u* = 0 and Phibar = 0 for t <= 1.
    """

    base: PowerLog

    def __post_init__(self):
        if not isinstance(self.base, PowerLog):
            raise InputError(f"numeric conjugate needs a power-log base, got {self.base!r}")
        if self.base.s == 1 and self.base.a == 0:
            raise InputError(
                f"conjugate of {self.base.label} degenerates; exponent must exceed 1 "
                f"or log-exponent be positive"
            )

    @property
    def label(self):
        return f"conjugate({self.base.label})"

    @property
    def _kink(self):
        """base'(0): 1 at s = 1, else 0.  Up to it u* = 0, so Phibar = Phibar' = 0."""
        return 1.0 if self.base.s == 1 else 0.0

    def value_and_slope(self, t):
        """(Phibar(t), Phibar'(t) = u*) from one argmax solve per entry; both are 0
        where u* < exp(-LOG_U_MAX) puts Phibar below the float range."""
        t = np.asarray(t, dtype=float)
        out, u = np.zeros(t.shape), np.zeros(t.shape)
        pos = t > self._kink
        if pos.any():
            s, a = self.base.s, self.base.a  # the argmax solves base'(u) = t
            v = _newton_log(t[pos], s - 1.0, s, a, a, f"{self.label} argmax", floor=True)
            u[pos] = up = np.exp(v)
            out[pos] = np.maximum(up * t[pos] - self.base(up), 0.0)
        return out, u

    def __call__(self, t):
        return _positive_part(lambda tp: self.value_and_slope(tp)[0], t, self._kink)

    def derivative(self, t):
        # envelope: d/dt sup_u (u t - Phi(u)) = argmax u
        return _positive_part(lambda tp: self.value_and_slope(tp)[1], t, self._kink)

    def inverse(self, y):
        s, a = self.base.s, self.base.a  # base'(u) at the root of u*base'(u) - base(u) = y
        return _positive_part(lambda yp: self.base.derivative(
            np.exp(_newton_log(yp, s, s - 1.0, a, a, f"{self.label} inverse"))), y)

    def conjugate(self) -> YoungFunction:
        return self.base


def _mass_ratio(mu, mass) -> float:
    """mu_max/mass_min, the reach of a Luxemburg norm or ball average; InputError if it overflows."""
    ratio = float(mu.max()) / float(mass.min())  # a Python float division overflows to inf without a warning
    if ratio == math.inf:
        raise InputError(f"mass ratio mu_max/mass_min = {mu.max():g}/{mass.min():g} overflows, "
                         f"so a Luxemburg bracket or a ball average may leave the float range")
    return ratio


def _norms_core(member, weighted, mu, mass, jobs):
    """Luxemburg norms of every row of each job's (fmat (k, n), [phi, ...]) over
    every ball row: per job and phi, (k, m).  member : (m, n) bool, weighted =
    member*mass, mu : (m,).  Where f vanishes, 0.

    A root depends only on the restricted row f*chi_B and on mu(B): off B,
    ``weighted`` multiplies Phi(0) = 0.  So each chunk of a stack is
    deduplicated once for all its phis.  A ``Power`` root depends on its batch,
    the distinct pairs of one (stack, chunk) under one phi, and on nothing else:
    the batches of every job at one chunk index share one ``_illinois`` loop,
    which steps each from the bracket of its largest mu(B) until its own widest
    bracket is within REL_TOL, evaluating Phi on the support of f only, with
    the dense bits (``_power_sums``).  Any other root is a ``_newton`` solve of
    g(x) = log(mu(B) / sum Phi(t) w) = 0, t = f e^{-x}, g' = sum Phi'(t) t w /
    sum Phi(t) w, from its bracket's midpoint, with Phi and Phi' from one
    ``phi.value_and_slope`` call, cold as a direct Phibar call: the bits of the
    pair solved alone.  Phi^{-1}(1), the upper end, is one more element of each
    chunk's bracket inversion (Power: closed form).
    """
    outs = [[np.zeros((len(fmat), len(member))) for _ in phis] for fmat, phis in jobs]
    ratio = _mass_ratio(mu, mass)  # the module docstring's bracket

    def gap(x, f, w, mu_b, phi):
        t = f / np.exp(x)[:, None]
        values, slopes = phi.value_and_slope(t)
        total = (values * w).sum(axis=1)
        return np.log(mu_b / total), (slopes * t * w).sum(axis=1) / total

    chunk = rows_per_chunk(member.size)  # bounds the (k, m, n) workspace
    for start in range(0, max(len(fmat) for fmat, _ in jobs), chunk):
        rows = slice(start, start + chunk)
        batches = {}  # this chunk index's Power batches, by phi
        for (fmat, phis), job_outs in zip(jobs, outs):
            fx = fmat[rows][:, None, :] * member[None, :, :]  # (kc, m, n)
            mx = fx.max(axis=2)
            act = mx > 0
            if not act.any():
                continue
            kk, bb = np.nonzero(act)
            pairs = np.column_stack([fx[kk, bb], mu[bb]])
            del fx  # the dedup's sort copies need its room
            # one opaque bytes item per row: sorting compares by memcmp, far
            # cheaper than np.unique(axis=0) on float fields
            keys = pairs.view(np.dtype((np.void, pairs.itemsize * pairs.shape[1]))).ravel()
            _, first, back = np.unique(keys, return_index=True, return_inverse=True)
            uk, ub = kk[first], bb[first]
            fa = pairs[first, :-1]   # (nu, n) distinct active restricted functions
            wa = weighted[ub]        # (nu, n)
            mua = mu[ub]             # (nu,)
            maxf = mx[uk, ub]
            for phi, out in zip(phis, job_outs):
                # Power keeps _illinois while the benchmark pins its roots' residuals (ROADMAP item 1)
                if isinstance(phi, Power):
                    batches.setdefault(phi, []).append((fa, wa, mua, np.log(maxf / phi.inverse(ratio)),
                                                        np.log(maxf / phi.inverse(1.0)), (out, (start + kk, bb), back)))
                    continue
                inv = phi.inverse(np.append(mua / mass.min(), 1.0))  # and Phi^{-1}(1), the upper end
                xlo, xhi = np.log(maxf / inv[:-1]), np.log(maxf / inv[-1])
                root = _newton(functools.partial(gap, phi=phi), 0.5 * (xlo + xhi), xlo, xhi,
                               f"Luxemburg norm under {phi!r}", fa, wa, mua)
                out[start + kk, bb] = np.exp(root)[back]
        if batches:  # one Illinois loop per chunk index; the batches of one phi are adjacent
            kinds, fa, wa, mua, xlo, xhi, ends = zip(
                *[(kind, *batch) for kind, phi in enumerate(batches) for batch in batches[phi]])
            sizes = np.array([mu_b.size for mu_b in mua])
            # a lone batch, the case of large inputs, is solved without a copy
            fa, wa, mua, xlo, xhi = (part[0] if len(part) == 1 else np.concatenate(part)
                                     for part in (fa, wa, mua, xlo, xhi))
            sums = _power_sums(fa, wa, list(batches), np.repeat(kinds, sizes).searchsorted(np.arange(len(batches) + 1)))
            root = _illinois(lambda x: np.log(sums(x) / mua), xlo, xhi, sizes,
                             f"Luxemburg norm under {' or '.join(map(repr, batches))}")
            for (out, cell, back), part in zip(ends, np.split(root, np.cumsum(sizes)[:-1])):
                out[cell] = np.exp(part)[back]
            del sums, root, part, ends, cell, xlo, xhi  # their room is the next chunk's workspace
    return outs


def _power_sums(f, w, powers, cuts):
    """x -> sum_y Phi(f[i, y] e^{-x[i]}) w[i, y] for each row i of f (k, n), with
    Phi = powers[j] on rows cuts[j]:cuts[j + 1], on the support f != 0 (found once).

    Each exponent is applied in place as a scalar (``2.0`` keeps numpy's
    ``square`` path).  The values fill a (k, n) buffer that is zero off the
    support, as the dense form is there (0 / e^x, 0 ** s and 0 * w are 0), and
    the buffer is summed by the same numpy row reduction: every sum has the bits
    of the dense form, pairwise order included.
    """
    on = np.flatnonzero(f)  # row-major, so each phi's rows hold a run of it
    rows, dense = on // f.shape[1], np.zeros(f.shape)
    fs, ws, flat, cuts = f.flat[on], w.flat[on], dense.reshape(-1), rows.searchsorted(cuts)

    def sums(x):
        t = fs / np.exp(x)[rows]
        for phi, lo, hi in zip(powers, cuts, cuts[1:]):
            t[lo:hi] **= phi.s
        t *= ws
        flat[on] = t
        return dense.sum(axis=1)

    return sums


def _illinois(at, xlo, xhi, sizes, what):
    """Illinois-damped false position for decreasing functions on a fixed set of
    batches of ``sizes`` elements, concatenated in 1-d arrays: ``at(x)`` gives
    every element's value, >= 0 at xlo and <= 0 at xhi.  A batch takes its
    midpoints at the first step its own widest bracket is within REL_TOL, and
    is then done; the loop steps every element until every batch is done, or
    raises NumericalError naming ``what`` after MAX_ITER steps.  All else is
    elementwise, so a root depends on its batch alone.  On the log-log
    ``Power`` constraint, affine in x, the first false-position point is the
    root and each later one falls within the margin of an end: the loop
    bisects, about 43 steps a call.
    """
    root, starts, done = np.empty(xlo.size), np.cumsum(sizes) - sizes, np.zeros(sizes.size, dtype=bool)
    x, fx = np.array([xlo, xhi]), np.array([at(xlo), at(xhi)])  # rows: the lower and the upper ends
    (xlo, xhi), (fa, fb), side = x, fx, np.zeros(x.shape, dtype=bool)  # side: the end each moved last; none yet
    for step in range(MAX_ITER + 1):
        width = xhi - xlo
        finish = ~done & (np.maximum.reduceat(width, starts) <= REL_TOL)
        if finish.any():
            out = np.repeat(finish, sizes)
            root[out] = 0.5 * (xlo[out] + xhi[out])
            done |= finish
            if done.all():
                return root
        if step == MAX_ITER:
            raise NumericalError(f"{what}: bracket wider than {REL_TOL:g} after {MAX_ITER} steps")
        with np.errstate(divide="ignore", invalid="ignore"):
            xt = (xlo * fb - xhi * fa) / (fb - fa)
        width *= 0.01  # the margin: a point that is NaN, infinite or within it of an end is the midpoint
        xt = np.where((xt > xlo + width) & (xt < xhi - width), xt, 0.5 * (xlo + xhi))
        ft = at(xt)
        new = ft > 0.0
        now = np.array([new, ~new])  # the end each element moves: the lower where ft > 0
        # an end kept at this step and the last, the other one moving both times, has its value halved
        np.multiply(fx, 0.5, out=fx, where=(side & now)[::-1])
        np.copyto(x, xt, where=now)
        np.copyto(fx, ft, where=now)
        side = now


def luxemburg_norms_over_balls(space: QuasiMetricSpace, fmat, phi: YoungFunction) -> np.ndarray:
    """Norms of each row of ``fmat`` over every canonical ball: (..., n) ->
    (..., m), and a single field gives (1, m)."""
    tbl = ball_table(space)
    fmat = np.atleast_2d(as_fields(space, fmat, "fmat"))
    norms = _norms_core(tbl.member, tbl.weighted, tbl.mu, space.mass, [(fmat.reshape(-1, space.n), [phi])])[0][0]
    return norms.reshape(fmat.shape[:-1] + (tbl.m,))


def alpha_p(phi: YoungFunction, p: float) -> float:
    """Tail integral int_1^inf Phi(t) t^{-p} dt/t; inf marks divergence.

    Power(s) only, by the closed form 1/(p-s) for s < p: the power-bump route
    takes it of a power conjugate.  Any other family raises InputError.
    """
    p_conjugate(p)  # validates the exponent range
    if isinstance(phi, Power):
        return 1.0 / (p - phi.s) if phi.s < p else math.inf
    raise InputError(f"tail integral is implemented for the power family only, got {phi!r}")
