"""Finite quasimetric measure spaces: structural constants and canonical balls.

A space is a finite point set carrying a symmetric distance matrix and
strictly positive point masses.  Balls are open: ``y`` belongs to ``B(x, r)``
iff ``dist[x, y] < r``.  Membership changes only when the radius crosses one
of the finitely many distances from the center, so per center the canonical
radii (the positive distance values, plus one radius past the maximum) realize
every achievable member set exactly once.  ``BallTable`` builds this family,
and every supremum "over all balls" in this package is an exact maximum over it.

Structural constants profiled here:

* ``kappa``  -- smallest constant with d(x,y) <= kappa*(d(x,z)+d(z,y));
* ``c_mu``   -- smallest doubling constant, sup of mu(B(x,2r))/mu(B(x,r));
* ``d_mu``   -- doubling order log2(c_mu);
* ``engulf`` -- kappa*(2*kappa+1); two intersecting balls with r(B1) <= r(B2)
  satisfy B1 subset-of engulf*B2.

The doubling supremum over *all* real radii is attained at the canonical
radii: the measure of B(x, r) is a left-continuous step function of r whose
jumps sit at distance values, and candidates at half-breakpoints are dominated
by candidates at the next distance value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "Ball",
    "SpaceProfile",
    "QuasiMetricSpace",
    "BallTable",
    "as_field",
    "as_fields",
    "build_space",
    "space_profile",
    "ball_table",
    "check_engulfing",
    "check_dilation_bounds",
]

# Element budget of one dense workspace: the (rows, balls, points) Luxemburg
# sweep, the kappa profile and the engulfing check chunk their rows to stay
# within it, and a grid whose (n, n, dim) difference array exceeds it is refused.
WORKSPACE_ELEMENTS = 4_000_000


def rows_per_chunk(cells: int) -> int:
    """Rows of a (rows, cells) workspace that fit the element budget."""
    return max(1, WORKSPACE_ELEMENTS // max(1, cells))


def _float_array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be an array of numbers ({exc})") from exc


def _is_integer(value) -> bool:
    """An int or an integral float; a bool or a numeric string is not."""
    return type(value) is int or type(value) is float and value.is_integer()


@dataclass(frozen=True)
class Ball:
    """Open ball: center index plus numeric radius (> 0), the report form of a
    ``BallTable`` row (``BallTable.ball``)."""

    center: int
    radius: float


@dataclass(frozen=True)
class SpaceProfile:
    """Profiled constants; the decomposition constants derive from them as
    properties, so ``asdict`` lists only the four fields."""

    kappa: float
    c_mu: float
    d_mu: float
    engulf: float

    @property
    def theta(self) -> float:  # the covering dilation of a selected ball
        return 4.0 * self.kappa**2 + self.kappa

    @property
    def eta(self) -> float:  # the selection window
        return self.kappa**2 * (4.0 * self.kappa + 3.0)

    @property
    def disjointing_base(self) -> float:
        """2*(4*theta*eta)**d_mu, the least level base that forces mu(B_i^k) <= 2*mu(E_i^k);
        InputError names the doubling order when it leaves the float range."""
        try:
            base = 2.0 * (4.0 * self.theta * self.eta) ** self.d_mu
        except OverflowError:
            base = math.inf
        if base == math.inf:
            raise InputError(f"level base 2*(4*theta*eta)**d_mu overflows: doubling order "
                             f"d_mu = {self.d_mu:g}, theta = {self.theta:g}, eta = {self.eta:g}")
        return base

    @property
    def level_base(self) -> float:
        """The default level base: the least integer >= max(2*(4*theta*eta)**d_mu,
        (2*eta)**d_mu + 1)."""
        return float(math.ceil(max(self.disjointing_base, (2.0 * self.eta) ** self.d_mu + 1.0)))


class QuasiMetricSpace:
    """Finite point set with distance matrix ``dist`` and masses ``mass``.

    Invariants checked on construction: dist is square, symmetric, zero
    exactly on the diagonal, nonnegative and finite; mass is strictly
    positive and finite.  Atoms (points with large mass) are fine; an empty
    point set is not.
    """

    def __init__(self, dist, mass):
        dist = _float_array(dist, "dist")
        mass = _float_array(mass, "mass")
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {dist.shape}")
        n = dist.shape[0]
        if n == 0:
            raise InputError("empty space: at least one point required")
        if mass.shape != (n,):
            raise InputError(
                f"dimension mismatch: {n} points but mass vector of shape {mass.shape}"
            )
        if not np.all(np.isfinite(dist)):
            i, j = np.argwhere(~np.isfinite(dist))[0]
            raise InputError(f"non-finite distance at ({i}, {j})")
        if not np.all(np.isfinite(mass)):
            i = int(np.argwhere(~np.isfinite(mass))[0][0])
            raise InputError(f"non-finite mass at index {i}")
        neg = np.argwhere(dist < 0)
        if neg.size:
            i, j = neg[0]
            raise InputError(f"negative distance at ({i}, {j})")
        asym = np.argwhere(dist != dist.T)
        if asym.size:
            i, j = asym[0]
            raise InputError(f"asymmetric distance at ({i}, {j})")
        if np.any(np.diag(dist) != 0):
            i = int(np.argwhere(np.diag(dist) != 0)[0][0])
            raise InputError(f"nonzero self-distance at index {i}")
        off = dist + np.eye(n)
        zero = np.argwhere(off == 0)
        if zero.size:
            i, j = zero[0]
            raise InputError(f"zero off-diagonal distance at ({i}, {j})")
        bad = np.argwhere(mass <= 0)
        if bad.size:
            i = int(bad[0][0])
            raise InputError(f"nonpositive mass at index {i}")
        self.dist = dist
        self.mass = mass
        self._table = None  # lazy BallTable cache
        self._profile = None  # lazy SpaceProfile cache
        self._memo = {}  # weight constants by name and inputs (weights._finite)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def __repr__(self):  # pragma: no cover
        return f"QuasiMetricSpace(n={self.n}, total_mass={self.total_mass:g})"


def as_field(space: QuasiMetricSpace, values, what: str = "field") -> np.ndarray:
    """The one validator of vectors on a space: a length-n array of finite,
    nonnegative floats.  The error names ``what`` and the first bad entry."""
    arr = _float_array(values, what)
    if arr.shape != (space.n,):
        raise InputError(f"{what} must be a length-{space.n} array, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr) | (arr < 0))
    if bad.size:
        i = int(bad[0])
        kind = ("NaN" if np.isnan(arr[i]) else "an infinite value" if np.isinf(arr[i])
                else "a negative value")
        raise InputError(f"{what} contains {kind} at index {i}")
    return arr


def as_fields(space: QuasiMetricSpace, values, what: str = "field") -> np.ndarray:
    """``as_field`` of a field, or of each row of a (..., n) stack in C order;
    the error names the first bad row."""
    try:
        arr = _float_array(values, what)
    except InputError as exc:  # a ragged list of lists: name its first row that is no field
        rows = values if isinstance(values, list) and values and isinstance(values[0], list) else []
        for i, row in enumerate(rows):
            try:
                as_fields(space, row, f"row {i} of {what}")
            except InputError as row_exc:
                raise InputError(f"{exc}; {row_exc}") from None
        raise
    if arr.ndim < 2:
        return as_field(space, arr, what)
    rows = arr.reshape(-1, arr.shape[-1])
    ok = ((rows >= 0) & (rows < math.inf)).all(axis=1) & (rows.shape[1] == space.n)
    for i in np.flatnonzero(~ok)[:1]:  # as_field names the fault
        as_field(space, rows[i], f"row {i} of {what}")
    return arr


_METRIC_ORDERS = {"l1": 1, "l2": 2, "linf": np.inf}


def build_space(spec: dict) -> QuasiMetricSpace:
    """Build a validated space from a specification dict.

    ``{"type": "explicit", "dist": [[...]], "mass": [...]}`` or
    ``{"type": "grid", "shape": [n] | [n, m], "metric": "l1"|"l2"|"linf",
    "mass": "uniform" | [...]}``.
    """
    if not isinstance(spec, dict):
        raise InputError("space spec must be a JSON object")
    kind = spec.get("type")
    if kind == "explicit":
        if "dist" not in spec or "mass" not in spec:
            raise InputError("explicit space spec requires fields 'dist' and 'mass'")
        return QuasiMetricSpace(spec["dist"], spec["mass"])
    if kind == "grid":
        shape = spec.get("shape")
        if not isinstance(shape, (list, tuple)) or not shape:
            raise InputError("grid space spec requires a nonempty 'shape' list")
        if not all(_is_integer(s) and s >= 1 for s in shape):
            raise InputError(f"grid 'shape' entries must be positive integers, got {shape}")
        if len(shape) > 2:
            raise InputError(f"grid shape must have 1 or 2 entries, got {shape}")
        dims = tuple(int(s) for s in shape)
        if math.prod(dims) ** 2 * len(dims) > WORKSPACE_ELEMENTS:  # exact Python ints
            raise InputError(
                f"grid 'shape' {shape} is too large: its (n, n, {len(dims)}) difference "
                f"array would exceed {WORKSPACE_ELEMENTS} elements"
            )
        coords = np.indices(dims).reshape(len(dims), -1).T.astype(float)
        metric = spec.get("metric", "l1")
        if not isinstance(metric, str) or metric not in _METRIC_ORDERS:
            raise InputError(f"unknown metric {metric!r}; expected l1, l2 or linf")
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.linalg.norm(diff, ord=_METRIC_ORDERS[metric], axis=2)
        mass = spec.get("mass", "uniform")
        if isinstance(mass, str):
            if mass != "uniform":
                raise InputError(f"unknown mass descriptor {mass!r}")
            mass = np.ones(coords.shape[0])
        return QuasiMetricSpace(dist, mass)
    raise InputError(f"unknown space type {kind!r}; expected 'grid' or 'explicit'")


def space_profile(space: QuasiMetricSpace) -> SpaceProfile:
    """Profile kappa, the doubling constant and order, and the engulfing factor.

    The profile is computed once and cached on the space, beside its table.
    """
    if space._profile is not None:
        return space._profile
    dist = space.dist
    n = space.n
    # kappa = max d(x,y) / min_z (d(x,z) + d(z,y)), in chunks of rows x; division
    # is monotone, so this is the max over all z.  z = x puts each x != y at >= 1,
    # and x == y, the only zero denominator, reads 1.
    kappa = 1.0
    chunk = rows_per_chunk(n * n)
    for start in range(0, n, chunk):
        near = (dist[start:start + chunk, None, :] + dist[None, :, :]).min(axis=2)
        ratio = np.divide(dist[start:start + chunk], near, out=np.ones_like(near), where=near > 0)
        kappa = max(kappa, float(ratio.max()))
    c_mu = 1.0
    tbl = ball_table(space)
    outer, mass = tbl.dilated(2.0), space.mass
    # One product per center, not one over the table: OpenBLAS sums a row of
    # a bool-matrix @ mass product in an order that depends on where the row
    # sits in the block, and a table-wide product moves c_mu by an ulp.  Row
    # sums, (dilated * mass).sum(axis=1), move it too, and through level_base
    # the chain constants that the benchmark references pin: the base moved on
    # 11 (row sums) and 1 (one product) of the 1,750 spaces of default_manifest(
    # seed, 50, 100, 100) at seven seeds, with numpy's OpenBLAS on one thread.
    for rows in map(slice, tbl.starts[:-1], tbl.starts[1:]):
        c_mu = max(c_mu, float(np.max((outer[rows] @ mass) / (tbl.member[rows] @ mass))))
    space._profile = SpaceProfile(
        kappa=kappa,
        c_mu=c_mu,
        d_mu=float(np.log2(c_mu)),
        engulf=kappa * (2.0 * kappa + 1.0),
    )
    return space._profile


class BallTable:
    """Dense view of the canonical ball family for vectorized sweeps.

    Row b is the ball of center ``centers[b]`` and radius ``radii[b]``, and
    ``ball(b)`` builds it as a ``Ball`` for a report.  ``member[b, y]`` is the
    membership matrix, ``mu[b]`` the ball measures, ``weighted[b, y] = member
    * mass`` the row weights used by averages, and ``by_radius`` the rows
    sorted by radius descending, then center ascending (the stopping-time
    selection order).  Maximal operators, weight constants, decompositions
    and the space profile and checks reduce over balls through this table.
    """

    def __init__(self, space: QuasiMetricSpace):
        # dist, not the space: the space caches its table, and that cycle
        # would keep both alive until the collector's next full pass
        self.dist = space.dist
        # Per center: each sorted distance above its left neighbour (column 0 is
        # the center's own 0), then twice the maximum.  Row-major: center, radius.
        srt = np.sort(space.dist, axis=1)
        top = 2.0 * srt[:, -1:] if space.n > 1 else np.ones((1, 1))
        keep = np.hstack([srt[:, 1:] > srt[:, :-1], np.ones_like(top, dtype=bool)])
        self.centers = np.nonzero(keep)[0]
        self.radii = np.hstack([srt[:, 1:], top])[keep]
        self.starts = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        self.member = self.dilated(1.0)
        self.depth = np.add.reduceat(self.member, self.starts[:-1], axis=0, dtype=np.intp)
        self.weighted = self.member * space.mass[None, :]
        self.mu = self.weighted.sum(axis=1)
        self.by_radius = np.lexsort((self.centers, -self.radii))

    @property
    def m(self) -> int:
        return self.radii.size

    def ball(self, r: int) -> Ball:
        """Row r of the family as a ``Ball``."""
        return Ball(center=int(self.centers[r]), radius=float(self.radii[r]))

    def dilated(self, lam: float) -> np.ndarray:
        """Membership (m, n) of every dilate lam*B: dist < lam * r(B)."""
        return self.dist[self.centers] < (lam * self.radii)[:, None]

    def averages(self, f: np.ndarray) -> np.ndarray:
        """Ball averages (1/mu(B)) * sum_B f dmu for all canonical balls, of a
        field, (n,) -> (m,), or of a stack of fields, (..., n) -> (..., m)."""
        return (self.weighted @ f if f.ndim == 1 else f @ self.weighted.T) / self.mu

    def point_max(self, per_ball) -> np.ndarray:
        """Max over the balls containing each point, (..., m) -> (..., n).

        The ball axis is last.  The balls of one center are nested, so those
        that contain y are its depth[c, y] largest: a running maximum from
        each center's largest ball down, read at depth, then the max over
        centers.  The fields go in chunks within the workspace budget.  The
        result is C-contiguous.
        """
        rows = np.asarray(per_ball, dtype=float).reshape(-1, self.m)
        n = self.depth.shape[0]
        count = np.diff(self.starts)
        # [j, c]: the row of the j-th largest ball of c; a center with fewer
        # balls repeats its smallest, which leaves its running maximum as it is
        down = np.minimum(np.arange(count.max())[:, None], count - 1)
        take = self.starts[1:] - 1 - down
        at = (self.depth.T - 1) * n + np.arange(n)  # [y, c]: run[depth[c, y] - 1, c]
        out = np.empty((rows.shape[0], n))
        chunk = rows_per_chunk((count.max() + n) * n)
        for start in range(0, rows.shape[0], chunk):
            run = rows[start:start + chunk].T[take]
            np.maximum.accumulate(run, axis=0, out=run)
            out[start:start + chunk] = run.reshape(-1, run.shape[2])[at].max(axis=1).T
        return out.reshape(np.shape(per_ball)[:-1] + (n,))


def ball_table(space: QuasiMetricSpace) -> BallTable:
    if space._table is None:
        space._table = BallTable(space)
    return space._table


def check_engulfing(space: QuasiMetricSpace, profile: SpaceProfile) -> list[tuple[Ball, Ball]]:
    """Exhaustively verify the engulfing containment over canonical ball pairs.

    For every pair with nonempty intersection and r(B1) <= r(B2) asserts
    members(B1) subset-of members(engulf * B2).  A nonempty return value
    signals a profiling bug, not bad user input.  The (m, m) pair test runs in
    row blocks within the workspace budget.
    """
    tbl = ball_table(space)
    member = tbl.member.astype(float)
    outside = (~tbl.dilated(profile.engulf)).astype(float)
    pairs = []
    chunk = rows_per_chunk(tbl.m)
    for start in range(0, tbl.m, chunk):
        rows = slice(start, start + chunk)
        # [j, i]: B_j meets B_i, and B_i has a point outside engulf * B_j
        bad = ((member[rows] @ member.T) > 0) & ((outside[rows] @ member.T) > 0)
        bad &= tbl.radii[None, :] <= tbl.radii[rows, None]
        pairs += [(tbl.ball(i), tbl.ball(start + j)) for j, i in np.argwhere(bad)]
    return pairs


def check_dilation_bounds(
    space: QuasiMetricSpace,
    profile: SpaceProfile,
    lambdas,
) -> list[dict]:
    """Verify mu(lam*B) <= (2*lam)**d_mu * mu(B) over all canonical balls.

    A 1e-12 relative headroom absorbs rounding in the transcendental bound; the
    inequality itself is exact given the profiled doubling constant.
    """
    tbl = ball_table(space)
    violations = []
    for lam in lambdas:
        if lam <= 1:
            continue
        mu_dil = tbl.dilated(lam) @ space.mass
        bound = (2.0 * lam) ** profile.d_mu * tbl.mu
        bad = mu_dil > bound * (1.0 + 1e-12)
        for i in np.nonzero(bad)[0]:
            violations.append(
                {
                    "ball": tbl.ball(i),
                    "lambda": float(lam),
                    "mu_dilated": float(mu_dil[i]),
                    "bound": float(bound[i]),
                }
            )
    return violations
