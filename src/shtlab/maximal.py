"""Exact maximal operators by enumeration over canonical balls.

The uncentered Hardy-Littlewood maximal function, its restriction to a ball's
indicator, and the Orlicz variant all reduce to finite maxima because the
canonical family realizes every achievable ball average (see ``space``).
Inputs are required nonnegative; callers pass absolute values explicitly.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError
from .orlicz import YoungFunction, luxemburg_norms_over_balls
from .space import Ball, QuasiMetricSpace, ball_mask, ball_table

__all__ = [
    "as_field",
    "hl_maximal",
    "restricted_maximal",
    "restricted_maximal_table",
    "orlicz_maximal",
]


def as_field(space: QuasiMetricSpace, values) -> np.ndarray:
    """Validate a nonnegative function vector against the space."""
    f = np.asarray(values, dtype=float)
    if f.shape != (space.n,):
        raise InputError(f"field vector must have length {space.n}, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InputError("field vector must be finite")
    if np.any(f < 0):
        i = int(np.argwhere(f < 0)[0][0])
        raise InputError(f"negative field value at index {i}")
    return f


def hl_maximal(space: QuasiMetricSpace, f) -> np.ndarray:
    """Mf(x) = max over canonical balls containing x of the ball average of f."""
    f = as_field(space, f)
    tbl = ball_table(space)
    return tbl.point_max(tbl.averages(f))


def restricted_maximal(space: QuasiMetricSpace, f, ball: Ball) -> np.ndarray:
    """M(f * indicator of the ball), evaluated on the whole space."""
    f = as_field(space, f)
    return hl_maximal(space, f * ball_mask(space, ball))


def restricted_maximal_table(space: QuasiMetricSpace, f) -> np.ndarray:
    """Rows: M(f * chi_B)(y) for every canonical ball B, shape (m, n).

    Batched form of ``restricted_maximal`` over the whole canonical family;
    avg[b', b] = average of f*chi_b over b' comes from one matrix product.
    """
    f = as_field(space, f)
    tbl = ball_table(space)
    avg = (tbl.member @ (tbl.weighted * f[None, :]).T) / tbl.mu[:, None]  # [b', b]
    return tbl.point_max(avg.T)


def orlicz_maximal(
    space: QuasiMetricSpace,
    f,
    phi: YoungFunction,
) -> np.ndarray:
    """M_Phi f(x) = max over canonical balls containing x of ||f||_{Phi,B}."""
    f = as_field(space, f)
    norms = luxemburg_norms_over_balls(space, f[None, :], phi)[0]
    return ball_table(space).point_max(norms)
