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
from dataclasses import dataclass

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
    selected_members: list[np.ndarray]

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
    return omega, [tbl.ball(r) for r in kept], [np.nonzero(tbl.member[r])[0] for r in kept]


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
    omega, balls, members = _select_level(space, tbl, base_mask, mf, avg, lam)
    return CZDecomposition(
        base_ball=base_ball,
        level=float(lam),
        omega=omega,
        selected=balls,
        selected_members=members,
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
    balls = dec.selected
    masks = np.zeros((len(balls), space.n), dtype=bool)  # row i: members of B_i
    for mask, members in zip(masks, dec.selected_members):
        mask[members] = True
    centers = np.array([b.center for b in balls], dtype=int)
    radii = np.array([b.radius for b in balls], dtype=float)

    # (i, j) with i < j in row-major order, as a nested loop would visit them;
    # a bool product is the "or" of "and"s, so [i, j] says B_i meets B_j
    for i, j in np.argwhere(np.triu(masks @ masks.T, 1)):
        violations.append({"kind": "overlap", "balls": (balls[i], balls[j])})

    for i, y in np.argwhere(masks & ~omega_mask):
        violations.append(
            {"kind": "selected_outside_omega", "ball": balls[i], "point": int(y)}
        )
    covered = (space.dist[centers] < (radii * config.theta)[:, None]).any(axis=0)
    for x in dec.omega[~covered[dec.omega]]:
        violations.append({"kind": "uncovered_point", "point": int(x)})

    fm = f * space.mass
    for ball, mask in zip(balls, masks):
        avg = float(fm[mask].sum() / space.mass[mask].sum())
        if not avg > dec.level - slack:
            violations.append({"kind": "low_average", "ball": ball, "average": avg})

    # [i, r]: table ball r contains B_i (no member of B_i lies outside it) and
    # has radius >= eta * r(B_i)
    big = ~(masks @ ~tbl.member.T) & (tbl.radii >= (config.eta * radii)[:, None])
    undilated = 0
    eta_dilates = tbl.dilated(config.eta)
    for i, r in np.argwhere(big):
        outer = eta_dilates[r]
        avg_out = float(fm[outer].sum() / space.mass[outer].sum())
        if avg_out > dec.level + slack:
            violations.append(
                {
                    "kind": "window_violated",
                    "ball": balls[i],
                    "enclosing": tbl.ball(r),
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
    """Least k with a**k >= avg; an a**k beyond the float range raises InputError naming a."""
    k0 = math.ceil(math.log(avg) / math.log(a))
    try:
        while a ** (k0 - 1) >= avg:
            k0 -= 1
        while a**k0 < avg:
            k0 += 1
    except OverflowError:
        raise InputError(f"level base a={a!r}: a**{k0} exceeds the float range") from None
    return k0


def multi_level_decompose(
    space: QuasiMetricSpace,
    base_ball: Ball,
    f,
    config: CZConfig,
    allow_small_a: bool = False,
) -> LevelFamily:
    """Decompositions at every level a**k from k0 up to the first empty level set."""
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
    # Omega_k is empty exactly when a**k >= max Mf over the base; a**k_end was
    # computed here, so no power in the level loop can overflow
    k_end = _starting_level(float(mf[base_mask].max()), config.a)
    if k_end - k0 > _MAX_LEVELS:
        raise InputError(
            f"level base a={config.a!r} gives {k_end - k0} levels, more than {_MAX_LEVELS}"
        )

    entries = []
    for k in range(k0, k_end):
        lam = config.a**k
        omega, balls, members = _select_level(space, tbl, base_mask, mf, avg, lam)
        next_mask = base_mask & (mf > config.a ** (k + 1))
        entries.append(
            LevelEntry(
                k=k,
                level=float(lam),
                omega=omega,
                balls=balls,
                members=members,
                pruned=[m[~next_mask[m]] for m in members],
            )
        )
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

    # Omega_{k+1} is the next entry's Omega; after the last level it is empty
    omega_next = [e.omega for e in fam.entries[1:]] + [np.empty(0, dtype=int)]
    seen = np.zeros(space.n, dtype=bool)
    for entry, nxt in zip(fam.entries, omega_next):
        for ball, members, pruned in zip(entry.balls, entry.members, entry.pruned):
            mu_ball = float(mass[members].sum())
            mu_cap = float(mass[members[np.isin(members, nxt)]].sum())
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
            if seen[pruned].any():
                violations.append({"kind": "pruned_overlap", "k": entry.k, "ball": ball})
            seen[pruned] = True
    return {"violations": violations}
