"""Exact maximal operators by enumeration over canonical balls.

The uncentered Hardy-Littlewood maximal function, its restrictions to the
indicator of every canonical ball at once, and the Orlicz variant all reduce
to finite maxima because the canonical family realizes every achievable ball
average (see ``space``).
Inputs are required nonnegative; callers pass absolute values explicitly.
``hl_maximal`` and ``orlicz_maximal`` take one field or a (..., n) stack of
fields, and return one maximal function per field.
"""
from __future__ import annotations

import numpy as np

from .orlicz import YoungFunction, luxemburg_norms_over_balls
from .space import QuasiMetricSpace, as_field, as_fields, ball_table

__all__ = [
    "hl_maximal",
    "restricted_maximal_table",
    "orlicz_maximal",
]


def hl_maximal(space: QuasiMetricSpace, f) -> np.ndarray:
    """Mf(x) = max over canonical balls containing x of the ball average of f."""
    f = as_fields(space, f)
    tbl = ball_table(space)
    return tbl.point_max(tbl.averages(f))


def restricted_maximal_table(space: QuasiMetricSpace, f) -> np.ndarray:
    """Rows: M(f * chi_B)(y) for every canonical ball B, shape (m, n).

    Row b is M(f * chi_b), the maximal function of f restricted to ball b,
    evaluated on the whole space; avg[b', b] = average of f*chi_b over b'
    comes from one matrix product.
    """
    f = as_field(space, f)
    tbl = ball_table(space)
    avg = (tbl.member @ (tbl.weighted * f[None, :]).T) / tbl.mu[:, None]  # [b', b]
    return tbl.point_max(avg.T)


def orlicz_maximal(space: QuasiMetricSpace, f, phi: YoungFunction) -> np.ndarray:
    """M_Phi f(x) = max over canonical balls containing x of ||f||_{Phi,B}."""
    f = as_fields(space, f)
    norms = luxemburg_norms_over_balls(space, f, phi)
    return ball_table(space).point_max(norms).reshape(f.shape)
