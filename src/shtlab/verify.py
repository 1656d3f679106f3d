"""Inequality harness: explicit-constant chain, operator-norm lower bounds,
reduction identities, and report-only probes.

The headline check is the quantitative chain with its explicit structural
constant: for any weights (w, sigma), exponent p, Young function Phi with
conjugate Phibar, and level base a at (or above) its default,

    sawyer**p <= 4 * a**p * (2*theta)**((p+1)*d_mu) * bump(Phi) * wp(Phibar).

This holds for every valid input, so the harness treats any slack above one
as a violation.  Bounds with unspecified structural constants (the mixed
two-weight estimate, the operator-norm equivalence, the reverse Holder
constant) are probed and reported, never asserted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .maximal import hl_maximal
from .orlicz import (
    Power,
    YoungFunction,
    alpha_p,
    p_conjugate,
)
from .space import QuasiMetricSpace, ball_table, space_profile
from .weights import (
    ainfty_fujii_wilson,
    as_weight,
    bump_ap,
    sawyer_constant,
    two_weight_ap,
    wp_constant,
)

__all__ = [
    "verify_main_chain",
    "OpNormEstimate",
    "opnorm_lower_bound",
    "verify_reductions",
    "probe_moen_and_norm",
    "weak_rhi_probe",
    "verify_appendix_bump",
]

PASS_HEADROOM = 1e-9


def verify_main_chain(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    phi: YoungFunction,
) -> dict:
    """Evaluate sawyer**p against the explicit bound; passing is a theorem.

    The constants are the space's profile at the default level base.  Returns
    the report row: constants, both sides, their ratio ``slack``, ``passed``.
    """
    profile = space_profile(space)
    a, theta = profile.level_base, profile.theta
    try:
        constant = 4.0 * a**p * (2.0 * theta) ** ((p + 1.0) * profile.d_mu)
    except OverflowError:
        constant = math.inf
    if constant == math.inf:
        raise InputError(
            f"chain constant 4*a**p*(2*theta)**((p+1)*d_mu) overflows at p = {p:g}: "
            f"doubling order d_mu = {profile.d_mu:g}, a = {a:g}, theta = {theta:g}"
        )
    phibar = phi.conjugate()
    sawyer = sawyer_constant(space, w, sigma, p)
    bump = bump_ap(space, w, sigma, p, phi)
    wp = wp_constant(space, sigma, p, phibar)
    bound = constant * bump * wp
    slack = sawyer**p / bound
    return {
        "p": p,
        "phi": phi.label,
        "a": a,
        "theta": theta,
        "d_mu": profile.d_mu,
        "sawyer": sawyer,
        "sawyer_p": sawyer**p,
        "bump": bump,
        "wp_conjugate": wp,
        "bound": bound,
        "slack": slack,
        "passed": bool(slack <= 1.0 + PASS_HEADROOM),
    }


@dataclass(frozen=True)
class OpNormEstimate:
    """Certified lower bound for the two-weight operator norm of M."""

    value: float
    witness: np.ndarray
    strategies: tuple[str, ...]
    trials: int = 0


def _ratio(space, w, sigma, p, f):
    """||M(f sigma)||_{L^p(w)} / ||f||_{L^p(sigma)} of a field, or of each row
    of a (k, n) stack; NaN where ||f||_{L^p(sigma)} vanishes."""
    mf = hl_maximal(space, f * sigma)
    num = ((mf**p) * w * space.mass).sum(axis=-1) ** (1.0 / p)
    den = ((f**p) * sigma * space.mass).sum(axis=-1) ** (1.0 / p)
    return np.divide(num, den, out=np.full_like(num, np.nan), where=den > 0)


def _sawyer_ordering(space, w, sigma, p, est: OpNormEstimate) -> tuple[float, bool]:
    """Sawyer constant, and whether it lies below the searched lower bound.

    The comparison allows 1e-9 absolute arithmetic headroom.
    """
    sawyer = sawyer_constant(space, w, sigma, p)
    return sawyer, bool(sawyer <= est.value + 1e-9)


_KNOWN_STRATEGIES = ("indicators", "random", "coordinate-ascent")


def opnorm_lower_bound(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    strategies=("indicators",),
    rng: np.random.Generator | None = None,
) -> OpNormEstimate:
    """Best ratio ||M(f sigma)||_{L^p(w)} / ||f||_{L^p(sigma)} over test fields.

    Indicators of every canonical member set are always included when the
    strategy is enabled; every evaluated ratio certifies a lower bound.
    """
    w = as_weight(space, w)
    sigma = as_weight(space, sigma)
    p_conjugate(p)
    strategies = tuple(strategies)
    for s in strategies:
        if s not in _KNOWN_STRATEGIES:
            raise InputError(f"unknown opnorm strategy {s!r}")
    tbl = ball_table(space)
    best_val, best_f, trials = -np.inf, None, 0

    def consider(fields, gain=0.0):
        """Evaluate a (k, n) stack of fields, accepting in row order each ratio
        above the best by more than the relative gain; the last accepted row."""
        nonlocal best_val, best_f, trials
        accepted = None
        for j, r in enumerate(_ratio(space, w, sigma, p, fields)):
            if r > best_val * (1.0 + gain):  # a NaN ratio (zero norm) never is
                best_val, best_f, accepted = r, fields[j].copy(), j
        trials += len(fields)
        return accepted

    if "indicators" in strategies:
        first = np.unique(tbl.member, axis=0, return_index=True)[1]  # each member set's first row
        consider(tbl.member[np.sort(first)].astype(float))
    if "random" in strategies:  # 24 random trials
        rng = np.random.default_rng(0) if rng is None else rng
        consider(10.0 ** rng.uniform(-1.5, 1.5, size=(24, space.n)))
    if best_f is None:
        consider(np.ones((1, space.n)))
    if "coordinate-ascent" in strategies and best_f is not None:
        f = best_f.copy()
        scale = max(float(f.max()), 1.0)
        for _ in range(40):  # coordinate-ascent passes
            improved = False
            for i in range(space.n):
                options = (f[i] * np.array([4.0, 2.0, 0.5, 0.25]) if f[i] > 0.0
                           else scale * np.array([0.25, 1.0]))
                stack = np.repeat(f[None, :], len(options), axis=0)
                stack[:, i] = options
                j = consider(stack, 1e-6)  # least relative gain
                if j is not None:
                    f[i], improved = options[j], True
            if not improved:
                break
    return OpNormEstimate(float(best_val), best_f, strategies, trials)


def verify_reductions(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
) -> dict:
    """Power-function reduction identities, both sides via independent paths.

    bump with Power(p') equals the classical two-weight constant, and the
    Orlicz Fujii-Wilson constant with Power(p) equals the plain one.
    """
    pc = p_conjugate(p)
    bump = bump_ap(space, w, sigma, p, Power(pc))
    classical = two_weight_ap(space, w, sigma, p)
    wp = wp_constant(space, sigma, p, Power(p))
    fw = ainfty_fujii_wilson(space, sigma)
    err_bump = abs(bump - classical) / classical
    err_wp = abs(wp - fw) / fw
    return {
        "p": p,
        "bump_power_pconj": bump,
        "two_weight_ap": classical,
        "rel_err_bump": err_bump,
        "wp_power_p": wp,
        "ainfty_fw": fw,
        "rel_err_wp": err_wp,
        "passed": bool(err_bump <= 1e-9 and err_wp <= 1e-9),
    }


def weight_constant_requests(w, sigma, p: float, phis) -> list:
    """The ``bump_ap`` and ``wp_constant`` calls of ``verify_reductions`` and of
    ``verify_main_chain`` under each of ``phis``, as ``solve_orlicz_constants``
    requests: solved at once, they leave each check only memo reads."""
    pairs = [(Power(p_conjugate(p)), Power(p))] + [(phi, phi.conjugate()) for phi in phis]
    return [request for bump, wp in pairs
            for request in ((bump_ap, w, sigma, p, bump), (wp_constant, sigma, p, wp))]


def probe_moen_and_norm(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
) -> dict:
    """Report-only probes of the operator-norm equivalences (no pass/fail).

    Records the searched lower bound against p' * sawyer, and the unweighted
    ratio maxima against q' for q = 1.25, 1.5, 2 and 4.
    """
    est = opnorm_lower_bound(space, w, sigma, p)
    sawyer = sawyer_constant(space, w, sigma, p)
    ones = np.ones(space.n)
    sweep = []
    for q in (1.25, 1.5, 2.0, 4.0):
        qc = p_conjugate(q)
        unweighted = opnorm_lower_bound(space, ones, ones, q)
        sweep.append(
            {
                "q": q,
                "q_conj": qc,
                "best_ratio": unweighted.value,
                "ratio_over_q_conj": unweighted.value / qc,
            }
        )
    return {
        "p": p,
        "opnorm_lower": est.value,
        "sawyer": sawyer,
        "moen_ratio": est.value / (p_conjugate(p) * sawyer),
        "unweighted_sweep": sweep,
    }


def weak_rhi_probe(
    space: QuasiMetricSpace,
    w,
) -> dict:
    """Largest exponent of self-improved integrability with explicit factor.

    Searches the largest r in (1, 64] with, for every canonical ball B,

        (avg_B w**r)**(1/r) <= 2*(4*kappa)**d_mu * avg_{2*kappa*B} w.

    At r = 1 the inequality holds with a factor-2 margin, so some r > 1 always
    exists on a finite space.  tau estimates the structural constant of the
    exponent formula r(w) = 1 + 1/(tau * A_infty(w)).  Returns r_star, r_max,
    tau_estimate and the Fujii-Wilson constant ainfty_fw.
    """
    w = as_weight(space, w)
    if np.any(w == 0):
        raise InputError("reverse Holder probe requires strictly positive weight")
    profile = space_profile(space)
    tbl = ball_table(space)
    scale = float(w.max())
    wn = w / scale
    factor = 2.0 * (4.0 * profile.kappa) ** profile.d_mu
    outer = tbl.dilated(2.0 * profile.kappa)
    outer_avg = (outer * space.mass[None, :]) @ wn / (outer @ space.mass)
    rhs = factor * outer_avg

    def holds(r: float) -> bool:
        lhs = (tbl.weighted @ wn**r / tbl.mu) ** (1.0 / r)
        return bool(np.all(lhs <= rhs))

    r_max = 64.0
    if holds(r_max):
        r_star = r_max
    else:
        lo, hi = 1.0, r_max
        for _ in range(60):  # bisection steps
            mid = 0.5 * (lo + hi)
            if holds(mid):
                lo = mid
            else:
                hi = mid
        r_star = lo
    fw = ainfty_fujii_wilson(space, w)
    return {
        "r_star": r_star,
        "r_max": r_max,
        "tau_estimate": 1.0 / ((r_star - 1.0) * fw) if r_star > 1.0 else np.inf,
        "ainfty_fw": fw,
    }


def verify_appendix_bump(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    r: float,
) -> dict:
    """Power-bump route certificate with Phi(t) = t**(p'*r), r > 1.

    The conjugate exponent (p'*r)' lies below p for every r > 1, so its tail
    integral is finite; the emitted certificate is bump**(1/p) * (alpha_p)**(1/p)
    with the structural prefactor left symbolic.
    """
    if r <= 1.0:
        raise InputError(f"appendix bump exponent requires r > 1, got {r}")
    pc = p_conjugate(p)
    s = pc * r
    phi = Power(s)
    conj = phi.conjugate()
    tail = alpha_p(conj, p)
    bump = bump_ap(space, w, sigma, p, phi)
    return {
        "p": p,
        "r": r,
        "phi_exponent": s,
        "conjugate_exponent": conj.s,
        "alpha_p_conjugate": tail,
        "alpha_p_finite": bool(np.isfinite(tail)),
        "bump": bump,
        "certificate": (bump * tail) ** (1.0 / p),
        "structural_constant": "symbolic",
    }
