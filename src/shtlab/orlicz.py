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
is one safeguarded Newton solve in log u on one closed-form kernel
(``_newton_log``); it stops per element once its step is at most LOG_STEP.

Any conjugate pair built here satisfies the band t <= Phi^{-1}(t) *
Phibar^{-1}(t) <= 2t; the Power convention pair sits at the lower edge.

The local Luxemburg norm over a ball B is

    ||f||_{Phi,B} = inf{ lam > 0 : (1/mu(B)) sum_{y in B} Phi(f[y]/lam) m[y] <= 1 }.

The constraint is continuous and strictly decreasing in lam wherever positive,
so the infimum is the unique root, found by Illinois-damped false position in
log(lam) from a rigorous bracket: with M = max_B f,

    M / Phi^{-1}(mu_max/mass_min)  <=  ||f||_{Phi,B}  <=  M / Phi^{-1}(1).

Root-finding tolerances are the module constants below; each checker's
headroom sits in the check it serves (see the README).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .space import (
    Ball, QuasiMetricSpace, as_field, as_fields, ball_mask, ball_table, rows_per_chunk,
)

__all__ = [
    "YoungFunction",
    "Power",
    "PowerLog",
    "NumericConjugate",
    "p_conjugate",
    "luxemburg_norm",
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


def _log_kernel(v, c, alpha, beta, a):
    """log(u**c * L**(a-1) * (alpha*L + beta*r)) and its slope in v = log u.

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
    value = c * v + (a - 1.0) * np.log1p(m) + log_g
    slope = c + (a - 1.0) * r / (1.0 + m) + r * (alpha + beta * (1.0 - r)) / g
    return value, slope


@functools.lru_cache(maxsize=256)
def _domain_ends(c, alpha, beta, a, v_max):
    """The kernel's values at v = -v_max and v = v_max."""
    return tuple(_log_kernel(np.array([-v_max, v_max]), c, alpha, beta, a)[0])


def _newton_log(y, c, alpha, beta, a, what, start=None):
    """Solve u**c * L**(a-1) * (alpha*L + beta*r) = y for v = log u (1-d y > 0).

    Newton in v on ``_log_kernel`` from ``start`` (log u, clipped to the domain;
    NaN or None starts at the root for a = 0), safeguarded as in Numerical
    Recipes ``rtsafe``: the kernel increases in v, so its values at v =
    +-LOG_U_MAX show at once that every root lies in that domain, each
    element's starting bracket.  Every evaluation shrinks it, and a Newton step
    that leaves it becomes a bisection step.  An element is frozen once its
    Newton step is at most LOG_STEP; convergence is quadratic, so that last
    step leaves an error far below one ulp.  No element depends on another, so
    a batch gives the bits of one call per element from the same starts.
    """
    ly = np.log(y)
    f_min, f_max = _domain_ends(c, alpha, beta, a, LOG_U_MAX)
    if ly.min() < f_min or ly.max() > f_max:
        raise NumericalError(f"{what}: root u lies beyond exp(+-{LOG_U_MAX:g})")
    v = np.clip((ly - math.log(alpha or beta)) / (c or 1.0), -LOG_U_MAX, LOG_U_MAX)
    if start is not None:
        np.copyto(v, np.clip(start, -LOG_U_MAX, LOG_U_MAX), where=~np.isnan(start))
    lo, hi = np.full(v.size, -LOG_U_MAX), np.full(v.size, LOG_U_MAX)
    idx = np.arange(v.size)
    root = np.empty(v.size)
    for _ in range(MAX_ITER):
        f, df = _log_kernel(v, c, alpha, beta, a)
        with np.errstate(all="ignore"):  # a step that is not finite becomes a bisection step
            step = (f - ly) / df
        np.copyto(lo, v, where=f < ly)
        np.copyto(hi, v, where=f > ly)
        v -= step
        done = np.abs(step) <= LOG_STEP
        if done.any():  # frozen even where a sub-ulp step ends on lo or hi
            root[idx[done]] = v[done]
            keep = ~done
            if not keep.any():
                return root
            idx, v, lo, hi, ly = idx[keep], v[keep], lo[keep], hi[keep], ly[keep]
        np.copyto(v, 0.5 * (lo + hi), where=~((v > lo) & (v < hi)))
    raise NumericalError(f"{what}: Newton solve did not converge in {MAX_ITER} steps")


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

    def warm(self, t, state=None):
        """(Phi(t), a state that starts a next call at nearby t); this one keeps none."""
        return self(t), None

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

    def warm(self, t, state=None):
        """(Phibar(t), log u*), u* the argmax, NaN where u* = 0; each argmax
        solve starts at its entry of ``state``, a log u* of the same shape."""
        t = np.asarray(t, dtype=float)
        out, v = np.zeros(t.shape), np.full(t.shape, np.nan)
        pos = t > self._kink
        if pos.any():
            s, a = self.base.s, self.base.a  # the argmax solves base'(u) = t
            v[pos] = _newton_log(t[pos], s - 1.0, s, a, a, f"{self.label} argmax",
                                 None if state is None else state[pos])
            u = np.exp(v[pos])
            out[pos] = np.maximum(u * t[pos] - self.base(u), 0.0)
        return out, v

    def __call__(self, t):
        return _positive_part(lambda tp: self.warm(tp)[0], t, self._kink)

    def derivative(self, t):
        # envelope: d/dt sup_u (u t - Phi(u)) = argmax u
        return _positive_part(lambda tp: np.exp(self.warm(tp)[1]), t, self._kink)

    def inverse(self, y):
        s, a = self.base.s, self.base.a  # base'(u) at the root of u*base'(u) - base(u) = y
        return _positive_part(lambda yp: self.base.derivative(
            np.exp(_newton_log(yp, s, s - 1.0, a, a, f"{self.label} inverse"))), y)

    def conjugate(self) -> YoungFunction:
        return self.base


def _norms_core(member, weighted, mu, mass, fmat, phi):
    """Luxemburg norms of every row of ``fmat`` over every ball row.

    member : (m, n) bool, weighted = member*mass : (m, n), mu : (m,).
    Returns (k, m).  Rows/balls where f vanishes get norm 0.

    A root depends only on the restricted row f*chi_B and on mu(B): off B,
    ``weighted`` multiplies Phi(0) = 0.  So each distinct active pair of a
    chunk is solved once and its root scattered back; duplicate pairs would
    run identical trajectories, so this keeps the bits.  A root is not the
    bits of a solve of its pair alone: ``_illinois`` steps the whole batch
    until its widest bracket is within REL_TOL, and ``phi.warm`` carries
    phi's state (the conjugate's log argmax) from each step to the next.
    """
    k = fmat.shape[0]
    m = member.shape[0]
    out = np.zeros((k, m))
    # the module docstring's bracket, M / inv_big <= norm <= M / inv_one; a
    # Python float division overflows to inf without a warning
    ratio = float(mu.max()) / float(mass.min())
    if ratio == math.inf:
        raise InputError(
            f"mass ratio mu_max/mass_min = {mu.max():g}/{mass.min():g} overflows, "
            f"so no Luxemburg norm can be bracketed"
        )
    inv_big = float(np.asarray(phi.inverse(ratio)))
    inv_one = float(np.asarray(phi.inverse(1.0)))
    chunk = rows_per_chunk(member.size)  # bounds the (k, m, n) workspace
    for start in range(0, k, chunk):
        rows = slice(start, min(start + chunk, k))
        fx = fmat[rows][:, None, :] * member[None, :, :]  # (kc, m, n)
        mx = fx.max(axis=2)
        act = mx > 0
        if not act.any():
            continue
        kk, bb = np.nonzero(act)
        keys = np.column_stack([fx[kk, bb], mu[bb]])
        # one opaque bytes item per row: sorting compares by memcmp, far
        # cheaper than np.unique(axis=0) on float fields
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, first, back = np.unique(keys, return_index=True, return_inverse=True)
        uk, ub = kk[first], bb[first]
        fa = fx[uk, ub]          # (nu, n) distinct active restricted functions
        wa = weighted[ub]        # (nu, n)
        mua = mu[ub]             # (nu,)
        maxf = mx[uk, ub]
        xlo, xhi = np.log(maxf / inv_big), np.log(maxf / inv_one)
        state = None  # phi's warm state, carried from each evaluation to the next

        def log_gap(x):
            nonlocal state
            lam = np.exp(x)
            values, state = phi.warm(fa / lam[:, None], state)
            return np.log((values * wa).sum(axis=1) / mua)

        root = np.exp(_illinois(log_gap, xlo, xhi, f"Luxemburg norm under {phi!r}"))
        buf = np.zeros((rows.stop - rows.start, m))
        buf[kk, bb] = root[back]
        out[rows] = buf
    return out


def _illinois(func, xlo, xhi, what):
    """Illinois-damped false position for a decreasing function.

    func(xlo) >= 0 >= func(xhi) elementwise; xlo and xhi are updated in place.
    Returns x with |bracket| <= REL_TOL, or raises NumericalError naming
    ``what``.  Converges superlinearly on the near-affine log-log constraint
    while keeping the bisection bracket guarantee.
    """
    fa, fb = func(xlo), func(xhi)
    above = below = np.zeros(xlo.shape, dtype=bool)  # the last step's side; none before the first
    for _ in range(MAX_ITER):
        width = xhi - xlo
        if width.max() <= REL_TOL:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            xt = (xlo * fb - xhi * fa) / (fb - fa)
        margin = 0.01 * width
        # a point that is NaN, infinite or within the margin of an end is the midpoint
        np.copyto(xt, 0.5 * (xlo + xhi), where=~((xt > xlo + margin) & (xt < xhi - margin)))
        ft = func(xt)
        new = ft > 0.0  # an end kept at this step and the last has its value halved
        np.copyto(fa, 0.5 * fa, where=below > new)  # below then, and below now
        np.copyto(fb, 0.5 * fb, where=above & new)
        above, below = new, ~new
        np.copyto(xlo, xt, where=above)
        np.copyto(fa, ft, where=above)
        np.copyto(xhi, xt, where=below)
        np.copyto(fb, ft, where=below)
    if np.max(xhi - xlo) > REL_TOL:
        raise NumericalError(f"{what}: bracket wider than {REL_TOL:g} after {MAX_ITER} steps")
    return 0.5 * (xlo + xhi)


def luxemburg_norm(
    space: QuasiMetricSpace,
    f,
    ball: Ball,
    phi: YoungFunction,
) -> float:
    """Local Luxemburg norm of a nonnegative function over one ball."""
    f = as_field(space, f)
    member = ball_mask(space, ball)[None, :]
    weighted = member * space.mass[None, :]
    mu = weighted.sum(axis=1)
    norms = _norms_core(member, weighted, mu, space.mass, f[None, :], phi)
    return float(norms[0, 0])


def luxemburg_norms_over_balls(space: QuasiMetricSpace, fmat, phi: YoungFunction) -> np.ndarray:
    """Norms of each row of ``fmat`` over every canonical ball: (..., n) ->
    (..., m), and a single field gives (1, m)."""
    tbl = ball_table(space)
    fmat = np.atleast_2d(as_fields(space, fmat, "fmat"))
    norms = _norms_core(tbl.member, tbl.weighted, tbl.mu, space.mass, fmat.reshape(-1, space.n), phi)
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
