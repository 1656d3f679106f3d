"""Stopping-time (Calderon-Zygmund) decomposition and multi-level disjointing.

Single level: given a base ball B, a nonnegative f and a level lam >= avg_B f,
the set Omega = {x in B : Mf(x) > lam} is covered by a disjoint family of
selected balls.  For each x in Omega we take the canonical ball containing x
of *maximal radius* whose f-average exceeds lam (the supremum over radii is
attained on a finite space, which realizes the selection window for every
eta > 1 simultaneously), then keep a Vitali subfamily: sort by radius
descending, center ascending, keep a ball iff disjoint from all kept so far.

Guarantees, with theta = 4*kappa**2 + kappa:

  i)   union(B_i) within Omega within union(theta*B_i),
       the first inclusion holding whenever the base ball is the whole space
       (averages never exceed the level needed to push points outside B);
  ii)  avg_{B_i} f > lam;
  iii) any canonical ball containing B_i with radius >= eta*r(B_i) has
       avg over its eta-dilate at most lam.

Multi-level: levels lam = a**k for k >= k0, where a**(k0-1) < avg_B f <= a**k0.
With eta = kappa**2*(4*kappa+3) and level base a the disjointing bound

    mu(B_i^k intersect Omega_{k+1}) < (4*theta*eta)**d_mu / a * mu(B_i^k)

holds, and for a >= 2*(4*theta*eta)**d_mu it forces mu(B_i^k) <= 2*mu(E_i^k)
for the pruned sets E_i^k = B_i^k minus Omega_{k+1}, which are pairwise
disjoint across all levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PreconditionError
from .maximal import hl_maximal
from .space import (
    Ball,
    QuasiMetricSpace,
    SpaceProfile,
    as_field,
    ball_mask,
    ball_table,
    dilate_ball,
)

__all__ = [
    "CZConfig",
    "cz_config",
    "required_level_base",
    "CZDecomposition",
    "cz_decompose",
    "verify_cz_properties",
    "LevelEntry",
    "LevelFamily",
    "multi_level_decompose",
    "verify_disjointing",
]

_MAX_LEVELS = 10**6


@dataclass(frozen=True)
class CZConfig:
    """Structural constants driving the decomposition.

    theta = 4*kappa**2 + kappa; eta defaults to kappa**2*(4*kappa+3); the
    level base a defaults to the smallest integer >= max(2*(4*theta*eta)**d_mu,
    (2*eta)**d_mu + 1).
    """

    kappa: float
    theta: float
    eta: float
    a: float
    d_mu: float


def required_level_base(theta: float, eta: float, d_mu: float) -> float:
    return max(2.0 * (4.0 * theta * eta) ** d_mu, (2.0 * eta) ** d_mu + 1.0)


def cz_config(
    profile: SpaceProfile,
    eta: float | None = None,
    a: float | None = None,
) -> CZConfig:
    kappa = profile.kappa
    theta = 4.0 * kappa**2 + kappa
    if eta is None:
        eta = kappa**2 * (4.0 * kappa + 3.0)
    if not 1 < eta < math.inf:
        raise InputError(f"eta must be finite and exceed 1, got {eta}")
    try:
        need = required_level_base(theta, eta, profile.d_mu)
    except OverflowError:
        need = math.inf
    if need == math.inf:
        raise InputError(
            f"level base 2*(4*theta*eta)**d_mu overflows: doubling order "
            f"d_mu = {profile.d_mu:g}, theta = {theta:g}, eta = {eta:g}"
        )
    if a is None:
        a = float(math.ceil(need))
    if not 1 < a < math.inf:
        raise InputError(f"level base a must be finite and exceed 1, got {a}")
    return CZConfig(kappa=kappa, theta=theta, eta=eta, a=float(a), d_mu=profile.d_mu)


@dataclass(frozen=True)
class CZDecomposition:
    base_ball: Ball
    level: float
    omega: np.ndarray                    # sorted indices of {x in B : Mf > lam}
    selected: list[Ball]
    selected_members: list[np.ndarray] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return len(self.selected) == 0


def _mask_average(space, f, mask) -> float:
    """Mass-weighted average of f over a member mask."""
    return float((f * space.mass)[mask].sum() / space.mass[mask].sum())


def _select_level(space, tbl, base_mask, mf, avg, lam):
    """Maximal-radius candidate per point of Omega, then greedy Vitali."""
    omega_mask = base_mask & (mf > lam)
    omega = np.nonzero(omega_mask)[0]
    if omega.size == 0:
        return omega, []
    # per point of Omega, the first admissible ball containing it in the
    # maximal-radius order (radius descending, ties to the smallest center)
    order = tbl.by_radius
    candidate = (avg[order] > lam)[:, None] & tbl.member[np.ix_(order, omega)]
    first = np.unique(candidate.argmax(axis=0))
    union = np.zeros(space.n, dtype=bool)
    kept = []
    for r in order[first]:
        if not (tbl.member[r] & union).any():
            kept.append(int(r))
            union |= tbl.member[r]
    balls = [tbl.balls[r] for r in kept]
    members = [np.nonzero(tbl.member[r])[0] for r in kept]
    return omega, list(zip(balls, members))


def cz_decompose(
    space: QuasiMetricSpace,
    base_ball: Ball,
    f,
    lam: float,
) -> CZDecomposition:
    """Single-level decomposition of {x in base : Mf > lam}."""
    f = as_field(space, f)
    if not math.isfinite(lam):
        raise InputError(f"level lambda must be finite, got {lam}")
    base_mask = ball_mask(space, base_ball)
    base_avg = _mask_average(space, f, base_mask)
    if lam < base_avg:
        raise PreconditionError(
            f"level below base average: lam={lam} < {base_avg}"
        )
    tbl = ball_table(space)
    mf = hl_maximal(space, f)
    avg = tbl.averages(f)
    omega, pairs = _select_level(space, tbl, base_mask, mf, avg, lam)
    return CZDecomposition(
        base_ball=base_ball,
        level=float(lam),
        omega=omega,
        selected=[b for b, _ in pairs],
        selected_members=[m for _, m in pairs],
    )


def verify_cz_properties(
    space: QuasiMetricSpace,
    dec: CZDecomposition,
    f,
    config: CZConfig,
) -> dict:
    """Re-assert disjointness and properties i)-iii) by exhaustive enumeration.

    Set inclusions are exact; the two average comparisons carry a 1e-9 relative
    arithmetic headroom, since the checker deliberately re-sums through a
    different path than the selection and boundary levels (constant f, level
    equal to an attained average) sit within an ulp of the comparison.

    Returns {"violations": [...], "undilated_exceedances": int}; the second
    field counts enclosing balls whose own (undilated) average exceeds the
    level, which is recorded but not asserted.
    """
    f = as_field(space, f)
    tbl = ball_table(space)
    violations = []
    slack = 1e-9 * abs(dec.level)
    omega_mask = np.zeros(space.n, dtype=bool)
    omega_mask[dec.omega] = True
    masks = [np.isin(np.arange(space.n), m) for m in dec.selected_members]

    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] & masks[j]).any():
                violations.append(
                    {"kind": "overlap", "balls": (dec.selected[i], dec.selected[j])}
                )

    covered = np.zeros(space.n, dtype=bool)
    for ball, mask in zip(dec.selected, masks):
        for y in np.nonzero(mask & ~omega_mask)[0]:
            violations.append(
                {"kind": "selected_outside_omega", "ball": ball, "point": int(y)}
            )
        covered |= ball_mask(space, dilate_ball(ball, config.theta))
    for x in dec.omega[~covered[dec.omega]]:
        violations.append({"kind": "uncovered_point", "point": int(x)})

    fm = f * space.mass
    for ball, mask in zip(dec.selected, masks):
        avg = float(fm[mask].sum() / space.mass[mask].sum())
        if not avg > dec.level - slack:
            violations.append({"kind": "low_average", "ball": ball, "average": avg})

    undilated = 0
    eta_dilates = tbl.dilated(config.eta)
    for ball, mask in zip(dec.selected, masks):
        contains = ~(tbl.member & ~mask[None, :]).any(axis=1)  # member sets >= mask
        big = contains & (tbl.radii >= config.eta * ball.radius)
        for r in np.nonzero(big)[0]:
            outer = eta_dilates[r]
            avg_out = float(fm[outer].sum() / space.mass[outer].sum())
            if avg_out > dec.level + slack:
                violations.append(
                    {
                        "kind": "window_violated",
                        "ball": ball,
                        "enclosing": tbl.balls[r],
                        "average": avg_out,
                    }
                )
            plain = float(fm[tbl.member[r]].sum() / tbl.mu[r])
            if plain > dec.level:
                undilated += 1
    return {"violations": violations, "undilated_exceedances": undilated}


@dataclass(frozen=True)
class LevelEntry:
    k: int
    level: float
    omega: np.ndarray
    balls: list[Ball]
    members: list[np.ndarray]
    pruned: list[np.ndarray]             # E_i^k = members minus Omega_{k+1}


@dataclass(frozen=True)
class LevelFamily:
    base_ball: Ball
    k0: int
    base_average: float
    entries: list[LevelEntry]


def _starting_level(avg: float, a: float) -> int:
    k0 = math.ceil(math.log(avg) / math.log(a))
    while a ** (k0 - 1) >= avg:
        k0 -= 1
    while a**k0 < avg:
        k0 += 1
    return k0


def multi_level_decompose(
    space: QuasiMetricSpace,
    base_ball: Ball,
    f,
    config: CZConfig,
    allow_small_a: bool = False,
) -> LevelFamily:
    """Decompositions at every level a**k, k >= k0, until the level set empties."""
    f = as_field(space, f)
    need = 2.0 * (4.0 * config.theta * config.eta) ** config.d_mu
    if not allow_small_a and config.a < need:
        raise InputError(
            f"level base a={config.a:g} below the disjointing requirement "
            f"2*(4*theta*eta)**d_mu = {need:g}"
        )
    base_mask = ball_mask(space, base_ball)
    base_avg = _mask_average(space, f, base_mask)
    if base_avg <= 0:
        raise PreconditionError("f vanishes on the base ball")
    k0 = _starting_level(base_avg, config.a)
    tbl = ball_table(space)
    mf = hl_maximal(space, f)
    avg = tbl.averages(f)

    entries = []
    k = k0
    while True:
        if k - k0 > _MAX_LEVELS:
            raise RuntimeError("level iteration failed to terminate")
        lam = config.a**k
        omega, pairs = _select_level(space, tbl, base_mask, mf, avg, lam)
        if omega.size == 0:
            break
        next_mask = base_mask & (mf > config.a ** (k + 1))
        pruned = [m[~next_mask[m]] for _, m in pairs]
        entries.append(
            LevelEntry(
                k=k,
                level=float(lam),
                omega=omega,
                balls=[b for b, _ in pairs],
                members=[m for _, m in pairs],
                pruned=pruned,
            )
        )
        k += 1
    return LevelFamily(base_ball=base_ball, k0=k0, base_average=base_avg, entries=entries)


def verify_disjointing(
    space: QuasiMetricSpace, fam: LevelFamily, config: CZConfig
) -> dict:
    """Check the multi-level bounds and exact disjointness of the pruned sets.

    Asserts the strict overlap bound at every level; the two-fold mass bound
    mu(B_i^k) <= 2*mu(E_i^k) is asserted only when the level base meets its
    requirement (it is a consequence of the overlap bound there).  Mass
    comparisons carry a 1e-12 relative grace for summation-order noise; the
    disjointness check is exact.
    """
    violations = []
    grace = 1e-12
    factor = (4.0 * config.theta * config.eta) ** config.d_mu / config.a
    check_half = config.a >= 2.0 * (4.0 * config.theta * config.eta) ** config.d_mu
    mass = space.mass

    omega_next_masks = []
    for entry in fam.entries:
        omega_mask = np.zeros(space.n, dtype=bool)
        omega_mask[entry.omega] = True
        omega_next_masks.append(omega_mask)
    # Omega_{k+1} for the last processed level is empty by termination
    omega_next_masks = omega_next_masks[1:] + [np.zeros(space.n, dtype=bool)]

    seen = np.zeros(space.n, dtype=bool)
    for entry, nxt in zip(fam.entries, omega_next_masks):
        for ball, members, pruned in zip(entry.balls, entry.members, entry.pruned):
            mu_ball = float(mass[members].sum())
            mu_cap = float(mass[members[nxt[members]]].sum())
            if not mu_cap < factor * mu_ball * (1.0 + grace):
                violations.append(
                    {
                        "kind": "overlap_bound",
                        "k": entry.k,
                        "ball": ball,
                        "mu_overlap": mu_cap,
                        "bound": factor * mu_ball,
                    }
                )
            if check_half:
                mu_pruned = float(mass[pruned].sum())
                if not mu_ball <= 2.0 * mu_pruned * (1.0 + grace):
                    violations.append(
                        {
                            "kind": "half_mass",
                            "k": entry.k,
                            "ball": ball,
                            "mu_ball": mu_ball,
                            "mu_pruned": mu_pruned,
                        }
                    )
            overlap = np.zeros(space.n, dtype=bool)
            overlap[pruned] = True
            if (overlap & seen).any():
                violations.append({"kind": "pruned_overlap", "k": entry.k, "ball": ball})
            seen |= overlap
    return {"violations": violations}
