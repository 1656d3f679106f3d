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

from dataclasses import asdict, dataclass

import numpy as np

from .czdecomp import CZConfig, cz_config
from .errors import InputError
from .maximal import hl_maximal
from .orlicz import (
    DEFAULT_NUMERICS,
    NumericsConfig,
    Power,
    YoungFunction,
    alpha_p,
    p_conjugate,
    young_conjugate,
)
from .space import QuasiMetricSpace, SpaceProfile, ball_table, space_profile
from .weights import (
    ainfty_fujii_wilson,
    as_weight,
    bump_ap,
    sawyer_constant,
    two_weight_ap,
    wp_constant,
)

__all__ = [
    "ChainReport",
    "verify_main_chain",
    "OpNormEstimate",
    "opnorm_lower_bound",
    "verify_reductions",
    "probe_moen_and_norm",
    "RHIProbeReport",
    "weak_rhi_probe",
    "verify_appendix_bump",
]

PASS_HEADROOM = 1e-9


@dataclass(frozen=True)
class ChainReport:
    """One evaluation of the explicit-constant chain inequality."""

    p: float
    phi: str
    a: float
    theta: float
    d_mu: float
    sawyer: float
    sawyer_p: float
    bump: float
    wp_conjugate: float
    bound: float
    slack: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def verify_main_chain(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    phi: YoungFunction,
    config: CZConfig | None = None,
    profile: SpaceProfile | None = None,
    cfg: NumericsConfig = DEFAULT_NUMERICS,
) -> ChainReport:
    """Evaluate sawyer**p against the explicit bound; passing is a theorem."""
    if profile is None:
        profile = space_profile(space)
    if config is None:
        config = cz_config(profile)
    phibar = young_conjugate(phi)
    sawyer = sawyer_constant(space, w, sigma, p)
    bump = bump_ap(space, w, sigma, p, phi, cfg)
    wp = wp_constant(space, sigma, p, phibar, cfg)
    constant = 4.0 * config.a**p * (2.0 * config.theta) ** ((p + 1.0) * config.d_mu)
    bound = constant * bump * wp
    slack = sawyer**p / bound
    return ChainReport(
        p=p,
        phi=phi.label,
        a=config.a,
        theta=config.theta,
        d_mu=config.d_mu,
        sawyer=sawyer,
        sawyer_p=sawyer**p,
        bump=bump,
        wp_conjugate=wp,
        bound=bound,
        slack=slack,
        passed=bool(slack <= 1.0 + PASS_HEADROOM),
    )


@dataclass(frozen=True)
class OpNormEstimate:
    """Certified lower bound for the two-weight operator norm of M."""

    value: float
    witness: np.ndarray
    strategies: tuple[str, ...]
    trials: int = 0


def _ratio(space, w, sigma, p, f):
    mf = hl_maximal(space, f * sigma)
    num = float(((mf**p) * w * space.mass).sum()) ** (1.0 / p)
    den = float(((f**p) * sigma * space.mass).sum()) ** (1.0 / p)
    if den == 0.0:
        return None
    return num / den


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
    random_trials: int = 24,
    ascent_rel_tol: float = 1e-6,
    ascent_max_passes: int = 40,
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
    best_val = -np.inf
    best_f = None
    trials = 0

    def consider(f):
        nonlocal best_val, best_f, trials
        r = _ratio(space, w, sigma, p, f)
        trials += 1
        if r is not None and r > best_val:
            best_val = r
            best_f = f.copy()

    if "indicators" in strategies:
        seen = set()
        for b in range(tbl.m):
            key = tbl.member[b].tobytes()
            if key in seen:
                continue
            seen.add(key)
            consider(tbl.member[b].astype(float))
    if "random" in strategies:
        if rng is None:
            rng = np.random.default_rng(0)
        for _ in range(random_trials):
            consider(10.0 ** rng.uniform(-1.5, 1.5, size=space.n))
    if best_f is None:
        consider(np.ones(space.n))
    if "coordinate-ascent" in strategies and best_f is not None:
        f = best_f.copy()
        scale = max(float(f.max()), 1.0)
        for _ in range(ascent_max_passes):
            improved = False
            for i in range(space.n):
                base = f[i]
                options = [base * 4.0, base * 2.0, base * 0.5, base * 0.25]
                if base == 0.0:
                    options = [scale * 0.25, scale]
                for cand in options:
                    f[i] = cand
                    r = _ratio(space, w, sigma, p, f)
                    trials += 1
                    if r is not None and r > best_val * (1.0 + ascent_rel_tol):
                        best_val = r
                        best_f = f.copy()
                        base = cand
                        improved = True
                    f[i] = base
            if not improved:
                break
    return OpNormEstimate(
        value=float(best_val), witness=best_f, strategies=strategies, trials=trials
    )


def verify_reductions(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    cfg: NumericsConfig = DEFAULT_NUMERICS,
    rel_tol: float = 1e-9,
) -> dict:
    """Power-function reduction identities, both sides via independent paths.

    bump with Power(p') equals the classical two-weight constant, and the
    Orlicz Fujii-Wilson constant with Power(p) equals the plain one.
    """
    pc = p_conjugate(p)
    bump = bump_ap(space, w, sigma, p, Power(pc), cfg)
    classical = two_weight_ap(space, w, sigma, p)
    wp = wp_constant(space, sigma, p, Power(p), cfg)
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
        "passed": bool(err_bump <= rel_tol and err_wp <= rel_tol),
    }


def probe_moen_and_norm(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    q_grid=(1.25, 1.5, 2.0, 4.0),
) -> dict:
    """Report-only probes of the operator-norm equivalences (no pass/fail).

    Records the searched lower bound against p' * sawyer, and the unweighted
    ratio maxima against q' on a grid of exponents.
    """
    est = opnorm_lower_bound(space, w, sigma, p)
    sawyer = sawyer_constant(space, w, sigma, p)
    ones = np.ones(space.n)
    sweep = []
    for q in q_grid:
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


@dataclass(frozen=True)
class RHIProbeReport:
    r_star: float
    r_max: float
    tau_estimate: float
    ainfty_fw: float
    factor: float


def weak_rhi_probe(
    space: QuasiMetricSpace,
    w,
    r_max: float = 64.0,
    iters: int = 60,
) -> RHIProbeReport:
    """Largest exponent of self-improved integrability with explicit factor.

    Searches the largest r in (1, r_max] with, for every canonical ball B,

        (avg_B w**r)**(1/r) <= 2*(4*kappa)**d_mu * avg_{2*kappa*B} w.

    At r = 1 the inequality holds with a factor-2 margin, so some r > 1 always
    exists on a finite space.  tau estimates the structural constant of the
    exponent formula r(w) = 1 + 1/(tau * A_infty(w)).
    """
    w = as_weight(space, w)
    if np.any(w == 0):
        raise InputError("reverse Holder probe requires strictly positive weight")
    profile = space_profile(space)
    tbl = ball_table(space)
    scale = float(w.max())
    wn = w / scale
    factor = 2.0 * (4.0 * profile.kappa) ** profile.d_mu
    outer = space.dist[tbl.centers] < (2.0 * profile.kappa * tbl.radii)[:, None]
    outer_avg = (outer * space.mass[None, :]) @ wn / (outer @ space.mass)
    rhs = factor * outer_avg

    def holds(r: float) -> bool:
        lhs = (tbl.weighted @ wn**r / tbl.mu) ** (1.0 / r)
        return bool(np.all(lhs <= rhs))

    if holds(r_max):
        r_star = r_max
    else:
        lo, hi = 1.0, r_max
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if holds(mid):
                lo = mid
            else:
                hi = mid
        r_star = lo
    fw = ainfty_fujii_wilson(space, w)
    return RHIProbeReport(
        r_star=r_star,
        r_max=r_max,
        tau_estimate=1.0 / ((r_star - 1.0) * fw) if r_star > 1.0 else np.inf,
        ainfty_fw=fw,
        factor=factor,
    )


def verify_appendix_bump(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    r: float,
    cfg: NumericsConfig = DEFAULT_NUMERICS,
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
    conj = young_conjugate(phi)
    tail = alpha_p(conj, p, cfg)
    bump = bump_ap(space, w, sigma, p, phi, cfg)
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
