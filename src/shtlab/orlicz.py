"""Young functions, conjugate pairs, local Luxemburg norms, and tail integrals.

Implemented families:

* ``Power(s)``      -- Phi(t) = t**s, s >= 1.  Conjugate by the exact exponent
  duality s -> s/(s-1) (the convention used throughout the weight constants;
  the exact Legendre conjugate differs by a bounded factor only).
* ``PowerLog(s, a)`` -- Phi(t) = t**s * log(e + t)**a, s >= 1, a >= 0.  Convex:
  the cross term of the second derivative dominates both negative terms.
* ``NumericConjugate(base)`` -- the Legendre conjugate sup_{u>0} (u*t - base(u)),
  evaluated by a monotone solve of base'(u) = t.  Its conjugate is ``base``
  again (biconjugation of a convex function).

Any conjugate pair built here satisfies the band t <= Phi^{-1}(t) *
Phibar^{-1}(t) <= 2t; the Power convention pair sits at the lower edge.

The local Luxemburg norm over a ball B is

    ||f||_{Phi,B} = inf{ lam > 0 : (1/mu(B)) sum_{y in B} Phi(f[y]/lam) m[y] <= 1 }.

The constraint is continuous and strictly decreasing in lam wherever positive,
so the infimum is the unique root, found by Illinois-damped false position in
log(lam) from a rigorous bracket: with M = max_B f,

    M / Phi^{-1}(mu_max/mass_min)  <=  ||f||_{Phi,B}  <=  M / Phi^{-1}(1).

Root-finding and quadrature tolerances are the module constants below; each
checker's headroom sits in the check it serves (see the README).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import InputError
from .space import Ball, QuasiMetricSpace, ball_mask, ball_table, rows_per_chunk

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


REL_TOL = 1e-12       # relative bracket width ending a root solve
MAX_ITER = 200        # cap on root-finding iterations
LEGENDRE_ITER = 36    # bisection steps locating the Legendre argmax
BRACKET_ITER = 600    # cap on bracket expansion steps
QUAD_REL_TOL = 1e-8   # target relative error of the tail integral


def p_conjugate(p: float) -> float:
    """Dual exponent p' = p/(p-1); requires 1 < p < inf."""
    if not (1.0 < p < math.inf):
        raise InputError(f"exponent p must lie in (1, inf), got {p}")
    return p / (p - 1.0)


def _bisect_increasing(
    g, y, x0, expand: float = 4.0, steps: int | None = None
):
    """Vectorized inverse of an increasing positive function on (0, inf).

    Solves g(x) = y for y > 0 elementwise, bracketing around the initial
    guess x0 by repeated scaling by ``expand``, then bisecting in log(x)
    until the bracket is REL_TOL wide, or for exactly ``steps`` steps.
    """
    y = np.asarray(y, dtype=float)
    lo = np.array(x0, dtype=float, copy=True)
    hi = np.array(x0, dtype=float, copy=True)
    for _ in range(BRACKET_ITER):
        need = g(lo) > y
        if not need.any():
            break
        lo = np.where(need, lo / expand, lo)
    for _ in range(BRACKET_ITER):
        need = g(hi) < y
        if not need.any():
            break
        hi = np.where(need, hi * expand, hi)
    xlo, xhi = np.log(lo), np.log(hi)
    for _ in range(MAX_ITER if steps is None else steps):
        if steps is None and np.max(xhi - xlo) <= REL_TOL:
            break
        xm = 0.5 * (xlo + xhi)
        low = g(np.exp(xm)) < y
        xlo = np.where(low, xm, xlo)
        xhi = np.where(low, xhi, xm)
    return np.exp(0.5 * (xlo + xhi))


def _positive_part(func, t):
    """func on the positive entries of t, 0 elsewhere; a scalar gives a float."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    pos = t > 0
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

    def __repr__(self):
        return self.label


@dataclass(frozen=True, repr=False)
class Power(YoungFunction):
    s: float

    def __post_init__(self):
        if self.s < 1:
            raise InputError(f"power exponent must be >= 1, got {self.s}")

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
        if self.s < 1:
            raise InputError(f"power-log exponent must be >= 1, got {self.s}")
        if self.a < 0:
            raise InputError(f"power-log log-exponent must be >= 0, got {self.a}")

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

    def derivative_root_guess(self, t):
        # seed for solving Phi'(u) = t; exact for a = 0
        if self.s == 1.0:
            return np.maximum(t, 1.0)
        return np.clip((t / self.s) ** (1.0 / (self.s - 1.0)), 1e-290, 1e290)

    def inverse(self, y):
        return _positive_part(
            lambda yp: _bisect_increasing(self, yp, yp ** (1.0 / self.s)), y
        )

    def conjugate(self) -> "NumericConjugate":
        return NumericConjugate(self)


@dataclass(frozen=True, repr=False)
class NumericConjugate(YoungFunction):
    """Legendre conjugate of a smooth Young function.

    Phibar(t) = u*t - Phi(u*) at the stationary point Phi'(u*) = t; the
    derivative is increasing, so the solve is a guarded log-bisection.
    """

    base: YoungFunction

    @property
    def label(self):
        return f"conjugate({self.base.label})"

    def _argmax(self, t):
        """Solve base'(u) = t elementwise (t > 0 assumed)."""
        base = self.base
        guess = getattr(base, "derivative_root_guess", None)
        u0 = np.asarray(guess(t) if guess is not None else base.inverse(t), dtype=float)
        u0 = np.where(u0 > 0, u0, 1.0)
        return _bisect_increasing(
            base.derivative, t, u0, expand=16.0, steps=LEGENDRE_ITER
        )

    def _value(self, t):
        u = self._argmax(t)
        return np.maximum(u * t - self.base(u), 0.0)

    def __call__(self, t):
        return _positive_part(self._value, t)

    def derivative(self, t):
        # envelope: d/dt sup_u (u t - Phi(u)) = argmax u
        return _positive_part(self._argmax, t)

    def inverse(self, y):
        return _positive_part(
            lambda yp: _bisect_increasing(self, yp, np.sqrt(yp)), y
        )

    def conjugate(self) -> YoungFunction:
        return self.base


def _root_bracket(phi: YoungFunction, maxf, mu_ratio: float):
    """Rigorous log-space bracket for the Luxemburg root, given max_B f."""
    inv_one = float(np.asarray(phi.inverse(1.0)))
    inv_big = float(np.asarray(phi.inverse(mu_ratio)))
    return np.log(maxf / inv_big), np.log(maxf / inv_one)


def _norms_core(member, weighted, mu, mass, fmat, phi):
    """Luxemburg norms of every row of ``fmat`` over every ball row.

    member : (m, n) bool, weighted = member*mass : (m, n), mu : (m,).
    Returns (k, m).  Rows/balls where f vanishes get norm 0.
    """
    k = fmat.shape[0]
    m = member.shape[0]
    out = np.zeros((k, m))
    mu_ratio = float(mu.max() / mass.min())
    chunk = rows_per_chunk(member.size)  # bounds the (k, m, n) workspace
    for start in range(0, k, chunk):
        rows = slice(start, min(start + chunk, k))
        fx = fmat[rows][:, None, :] * member[None, :, :]  # (kc, m, n)
        mx = fx.max(axis=2)
        act = mx > 0
        if not act.any():
            continue
        kk, bb = np.nonzero(act)
        fa = fx[kk, bb]          # (na, n) active restricted functions
        wa = weighted[bb]        # (na, n)
        mua = mu[bb]             # (na,)
        xlo, xhi = _root_bracket(phi, mx[kk, bb], mu_ratio)

        def log_gap(x):
            lam = np.exp(x)
            s = (phi(fa / lam[:, None]) * wa).sum(axis=1) / mua
            return np.log(s)

        root = np.exp(_illinois(log_gap, xlo, xhi))
        buf = np.zeros((rows.stop - rows.start, m))
        buf[kk, bb] = root
        out[rows] = buf
    return out


def _illinois(func, xlo, xhi):
    """Illinois-damped false position for a decreasing function.

    func(xlo) >= 0 >= func(xhi) elementwise; returns x with |bracket| <=
    REL_TOL.  Converges superlinearly on the near-affine log-log constraint
    while keeping the bisection bracket guarantee.
    """
    fa = func(xlo)
    fb = func(xhi)
    side = np.zeros(xlo.shape, dtype=int)
    for _ in range(MAX_ITER):
        width = xhi - xlo
        if np.max(width) <= REL_TOL:
            break
        denom = fb - fa
        mid = 0.5 * (xlo + xhi)
        with np.errstate(divide="ignore", invalid="ignore"):
            xt = (xlo * fb - xhi * fa) / denom
        margin = 0.01 * width
        good = np.isfinite(xt) & (xt > xlo + margin) & (xt < xhi - margin)
        xt = np.where(good, xt, mid)
        ft = func(xt)
        above = ft > 0
        xlo = np.where(above, xt, xlo)
        xhi = np.where(above, xhi, xt)
        fa_new = np.where(above, ft, np.where(side == 1, 0.5 * fa, fa))
        fb_new = np.where(above, np.where(side == -1, 0.5 * fb, fb), ft)
        side = np.where(above, -1, 1)
        fa, fb = fa_new, fb_new
    return 0.5 * (xlo + xhi)


def luxemburg_norm(
    space: QuasiMetricSpace,
    f,
    ball: Ball,
    phi: YoungFunction,
) -> float:
    """Local Luxemburg norm of a nonnegative function over one ball."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise InputError(f"function vector must have length {space.n}")
    if np.any(f < 0) or not np.all(np.isfinite(f)):
        raise InputError("luxemburg_norm expects finite nonnegative values")
    member = ball_mask(space, ball)[None, :]
    weighted = member * space.mass[None, :]
    mu = weighted.sum(axis=1)
    norms = _norms_core(member, weighted, mu, space.mass, f[None, :], phi)
    return float(norms[0, 0])


def luxemburg_norms_over_balls(
    space: QuasiMetricSpace,
    fmat,
    phi: YoungFunction,
) -> np.ndarray:
    """Norms of each row of ``fmat`` over every canonical ball, shape (k, m)."""
    tbl = ball_table(space)
    fmat = np.atleast_2d(np.asarray(fmat, dtype=float))
    return _norms_core(tbl.member, tbl.weighted, tbl.mu, space.mass, fmat, phi)


def alpha_p(
    phi: YoungFunction, p: float
) -> float:
    """Tail integral int_1^inf Phi(t) t^{-p} dt/t; inf marks divergence.

    Power(s): closed form 1/(p-s) for s < p.  PowerLog: substitution t = e^u
    gives int_0^inf e^{-(p-s)u} log(e+e^u)^a du, integrated on [0, U] with a
    certified remainder: for u >= 1, log(e+e^u) <= u+1, so the tail is at most
    e^c c^{-(a+1)} Gamma(a+1, c(U+1)) with c = p-s.
    """
    p_conjugate(p)  # validates the exponent range
    if isinstance(phi, Power):
        return 1.0 / (p - phi.s) if phi.s < p else math.inf
    if isinstance(phi, PowerLog):
        s, a = phi.s, phi.a
        if s >= p:
            return math.inf
        c = p - s

        def integrand(u):
            return math.exp(-c * u) * float(np.logaddexp(1.0, u)) ** a

        upper = max(2.0, 4.0 / c)
        for _ in range(200):
            main, _ = integrate.quad(
                integrand, 0.0, upper, epsabs=0.0, epsrel=1e-11, limit=400
            )
            tail_bound = (
                math.exp(c) * c ** -(a + 1.0) * special.gammaincc(a + 1.0, c * (upper + 1.0))
                * special.gamma(a + 1.0)
            )
            if tail_bound <= 0.5 * QUAD_REL_TOL * main:
                return main + 0.5 * tail_bound
            upper *= 2.0
        raise RuntimeError("tail integral failed to certify its remainder")
    raise InputError(
        "tail integral is implemented for the power and power-log families"
    )
