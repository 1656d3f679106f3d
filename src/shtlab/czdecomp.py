"""Stopping-time (Calderon-Zygmund) decomposition and multi-level disjointing.

Single level: given a nonnegative f on the whole (bounded) space X and a level
lam >= avg_X f, the set Omega = {x : Mf(x) > lam} is covered by a disjoint family of
selected balls.  On a finite space Omega is the points of the canonical balls
averaging above lam, so no maximal function is evaluated.  For each x in Omega we
take the canonical ball containing x of *maximal radius* whose f-average exceeds lam
(the supremum over radii is attained on a finite space, which realizes the selection
window for every eta > 1 simultaneously), then keep a Vitali subfamily: sort by
radius descending, center ascending, keep a ball iff disjoint from all kept so far.
A selected ball is a row of the space's ``BallTable``.

Guarantees, with theta and eta read off the space's ``SpaceProfile``:

  i)   union(B_i) within Omega within union(theta*B_i);
  ii)  avg_{B_i} f > lam;
  iii) any canonical ball containing B_i with radius >= eta*r(B_i) has
       avg over its eta-dilate at most lam.

Multi-level: levels lam = a**k for k >= k0, where a**(k0-1) < avg_X f <= a**k0.
With level base a the disjointing bound

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
from .space import QuasiMetricSpace, as_field, ball_table, space_profile

__all__ = [
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
class CZDecomposition:
    level: float
    omega: np.ndarray                    # sorted indices of {x : Mf > lam}
    selected: np.ndarray                 # BallTable rows of the B_i, in Vitali order

    @property
    def is_empty(self) -> bool:
        return len(self.selected) == 0


def _space_average(space, f) -> float:
    """Mass-weighted average of f over the whole space; InputError if its sum overflows."""
    with np.errstate(over="ignore"):
        total = (f * space.mass).sum()
    if not math.isfinite(total):
        raise InputError(f"mass-weighted sum of f exceeds the float range (max f = {f.max():g})")
    return float(total / space.mass.sum())


def _select_level(tbl, avg, lam):
    """Omega, the points of the balls averaging above lam (on a finite space {Mf > lam}:
    no maximal function is evaluated), and the rows of a maximal-radius candidate per
    point of Omega after greedy Vitali."""
    # [i, x]: ball order[i] averages above lam and contains x, in the maximal-radius
    # order (radius descending, ties to the smallest center)
    order = tbl.by_radius
    candidate = (avg[order] > lam)[:, None] & tbl.member[order]
    omega = np.flatnonzero(candidate.any(axis=0))
    first = np.unique(candidate[:, omega].argmax(axis=0))
    union = np.zeros(tbl.member.shape[1], dtype=bool)
    kept = []
    for r in order[first]:
        if not (tbl.member[r] & union).any():
            kept.append(r)
            union |= tbl.member[r]
    return omega, np.array(kept, dtype=int)


def cz_decompose(space: QuasiMetricSpace, f, lam: float) -> CZDecomposition:
    """Single-level decomposition of {x : Mf > lam}."""
    f = as_field(space, f)
    if not math.isfinite(lam):
        raise InputError(f"level lambda must be finite, got {lam}")
    base_avg = _space_average(space, f)
    if lam < base_avg:
        raise PreconditionError(f"level below base average: lam={lam} < {base_avg}")
    tbl = ball_table(space)
    omega, rows = _select_level(tbl, tbl.averages(f), lam)
    return CZDecomposition(level=float(lam), omega=omega, selected=rows)


def verify_cz_properties(space: QuasiMetricSpace, dec: CZDecomposition, f) -> dict:
    """Re-assert disjointness and properties i)-iii) by exhaustive enumeration.

    theta and eta are read off the space's profile.  Set inclusions are exact;
    the two average comparisons carry a 1e-9 relative arithmetic headroom,
    since the checker deliberately re-sums through a different path than the
    selection and boundary levels (constant f, level equal to an attained
    average) sit within an ulp of the comparison.

    Returns {"violations": [...], "undilated_exceedances": int}; the second
    field counts enclosing balls whose own (undilated) average exceeds the
    level, which is recorded but not asserted.
    """
    f = as_field(space, f)
    profile = space_profile(space)
    tbl = ball_table(space)
    violations = []
    slack = 1e-9 * abs(dec.level)
    omega_mask = np.zeros(space.n, dtype=bool)
    omega_mask[dec.omega] = True
    rows = dec.selected
    masks = tbl.member[rows]  # row i: members of B_i
    radii = tbl.radii[rows]

    # (i, j) with i < j in row-major order, as a nested loop would visit them;
    # a bool product is the "or" of "and"s, so [i, j] says B_i meets B_j
    for i, j in np.argwhere(np.triu(masks @ masks.T, 1)):
        violations.append({"kind": "overlap", "balls": (tbl.ball(rows[i]), tbl.ball(rows[j]))})

    for i, y in np.argwhere(masks & ~omega_mask):
        violations.append(
            {"kind": "selected_outside_omega", "ball": tbl.ball(rows[i]), "point": int(y)}
        )
    covered = tbl.dilated(profile.theta)[rows].any(axis=0)
    for x in dec.omega[~covered[dec.omega]]:
        violations.append({"kind": "uncovered_point", "point": int(x)})

    fm = f * space.mass
    for r, mask in zip(rows, masks):
        avg = float(fm[mask].sum() / space.mass[mask].sum())
        if not avg > dec.level - slack:
            violations.append({"kind": "low_average", "ball": tbl.ball(r), "average": avg})

    # [i, r]: table ball r contains B_i (no member of B_i lies outside it) and
    # has radius >= eta * r(B_i)
    big = ~(masks @ ~tbl.member.T) & (tbl.radii >= (profile.eta * radii)[:, None])
    undilated = 0
    eta_dilates = tbl.dilated(profile.eta)
    for i, r in np.argwhere(big):
        outer = eta_dilates[r]
        avg_out = float(fm[outer].sum() / space.mass[outer].sum())
        if avg_out > dec.level + slack:
            violations.append(
                {
                    "kind": "window_violated",
                    "ball": tbl.ball(rows[i]),
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
    balls: np.ndarray                    # BallTable rows of the B_i^k, in Vitali order
    pruned: list[np.ndarray]             # E_i^k = B_i^k minus Omega_{k+1}


@dataclass(frozen=True)
class LevelFamily:
    a: float                             # the level base
    k0: int
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


def multi_level_decompose(space: QuasiMetricSpace, f, a: float | None = None,
                          allow_small_a: bool = False) -> LevelFamily:
    """Decompositions at every level a**k from k0 up to the first empty level set;
    a defaults to the profile's ``level_base``; one below its ``disjointing_base`` needs
    ``allow_small_a``."""
    f = as_field(space, f)
    profile = space_profile(space)
    a = profile.level_base if a is None else float(a)
    if not 1 < a < math.inf:
        raise InputError(f"level base a must be finite and exceed 1, got {a}")
    need = profile.disjointing_base  # refused here if it overflows: the checker reads it
    if not allow_small_a and a < need:
        raise InputError(
            f"level base a={a:g} below the disjointing requirement "
            f"2*(4*theta*eta)**d_mu = {need:g}"
        )
    base_avg = _space_average(space, f)
    if base_avg <= 0:
        raise PreconditionError("f vanishes on the whole space")
    k0 = _starting_level(base_avg, a)
    tbl = ball_table(space)
    avg = tbl.averages(f)
    # Omega_k is empty exactly when a**k >= max Mf, the largest ball average;
    # a**k_end was computed here, so no power in the level loop can overflow
    k_end = _starting_level(float(avg.max()), a)
    if k_end - k0 > _MAX_LEVELS:
        raise InputError(f"level base a={a!r} gives {k_end - k0} levels, more than {_MAX_LEVELS}")

    entries = []
    for k in range(k0, k_end):
        lam = a**k
        omega, rows = _select_level(tbl, avg, lam)
        in_next = tbl.member[avg > a ** (k + 1)].any(axis=0)
        entries.append(
            LevelEntry(
                k=k,
                level=float(lam),
                omega=omega,
                balls=rows,
                pruned=[np.flatnonzero(tbl.member[r] & ~in_next) for r in rows],
            )
        )
    return LevelFamily(a=a, k0=k0, entries=entries)


def verify_disjointing(space: QuasiMetricSpace, fam: LevelFamily) -> dict:
    """Check the multi-level bounds and exact disjointness of the pruned sets.

    Asserts the strict overlap bound at every level; the two-fold mass bound
    mu(B_i^k) <= 2*mu(E_i^k) is asserted only when the family's level base
    meets its requirement (it is a consequence of the overlap bound there).
    Mass comparisons carry a 1e-12 relative grace for summation-order noise;
    the disjointness check is exact.
    """
    violations = []
    grace = 1e-12
    need = space_profile(space).disjointing_base
    factor = need / (2.0 * fam.a)  # (4*theta*eta)**d_mu / a
    check_half = fam.a >= need
    mass = space.mass
    tbl = ball_table(space)

    # Omega_{k+1} is the next entry's Omega; after the last level it is empty
    omega_next = [e.omega for e in fam.entries[1:]] + [np.empty(0, dtype=int)]
    seen = np.zeros(space.n, dtype=bool)
    for entry, nxt in zip(fam.entries, omega_next):
        in_next = np.isin(np.arange(space.n), nxt)
        for r, pruned in zip(entry.balls, entry.pruned):
            mu_ball = float(mass[tbl.member[r]].sum())
            mu_cap = float(mass[tbl.member[r] & in_next].sum())
            if not mu_cap < factor * mu_ball * (1.0 + grace):
                violations.append(
                    {
                        "kind": "overlap_bound",
                        "k": entry.k,
                        "ball": tbl.ball(r),
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
                            "ball": tbl.ball(r),
                            "mu_ball": mu_ball,
                            "mu_pruned": mu_pruned,
                        }
                    )
            if seen[pruned].any():
                violations.append({"kind": "pruned_overlap", "k": entry.k, "ball": tbl.ball(r)})
            seen[pruned] = True
    return {"violations": violations}
