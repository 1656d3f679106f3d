"""Weight constants: Muckenhoupt, two-weight, A_infty, Orlicz-bump, Sawyer.

Every constant is a supremum over balls; here each is an exact maximum over
the canonical family.  Conventions:

* suprema skip balls where the normalizing weight vanishes (0/0 := 0);
* the one-weight A_p and the exponential A_infty constant demand a strictly
  positive weight, since they involve w**(-1/(p-1)) or log(1/w);
* two-weight constants accept weights with zeros;
* a constant whose value is inf or NaN raises InputError naming itself.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .maximal import restricted_maximal_table
from .orlicz import (
    YoungFunction,
    luxemburg_norms_over_balls,
    p_conjugate,
)
from .space import QuasiMetricSpace, as_field, ball_table

__all__ = [
    "as_weight",
    "ap_constant",
    "two_weight_ap",
    "ainfty_fujii_wilson",
    "ainfty_exp",
    "bump_ap",
    "wp_constant",
    "sawyer_constant",
    "ConstantsReport",
    "constants_report",
]


def as_weight(space: QuasiMetricSpace, values) -> np.ndarray:
    """A field (see ``space.as_field``) with some strictly positive entry."""
    w = as_field(space, values, "weight")
    if not np.any(w > 0):
        raise InputError("weight must have a strictly positive entry")
    return w


def _finite(constant):
    """Wrap a weight constant: its value, or an InputError naming it when
    the value is inf or NaN."""

    @functools.wraps(constant)
    def checked(*args, **kwargs):
        value = constant(*args, **kwargs)
        if not math.isfinite(value):
            raise InputError(f"{constant.__name__} is {value}, not a finite number")
        return value

    return checked


@_finite
def ap_constant(space: QuasiMetricSpace, w, p: float) -> float:
    """sup_B (avg_B w) * (avg_B w**(-1/(p-1)))**(p-1)."""
    w = as_weight(space, w)
    if np.any(w == 0):
        raise InputError("Ap requires strictly positive weight")
    p_conjugate(p)
    tbl = ball_table(space)
    lead = tbl.averages(w)
    dual = tbl.averages(w ** (-1.0 / (p - 1.0)))
    return float(np.max(lead * dual ** (p - 1.0)))


@_finite
def two_weight_ap(space: QuasiMetricSpace, w, sigma, p: float) -> float:
    """sup_B (avg_B w) * (avg_B sigma)**(p-1)."""
    w = as_weight(space, w)
    sigma = as_weight(space, sigma)
    p_conjugate(p)
    tbl = ball_table(space)
    return float(np.max(tbl.averages(w) * tbl.averages(sigma) ** (p - 1.0)))


@_finite
def ainfty_fujii_wilson(space: QuasiMetricSpace, w) -> float:
    """Fujii-Wilson constant: sup_B (1/w(B)) * sum_B M(w*chi_B) dmu."""
    w = as_weight(space, w)
    tbl = ball_table(space)
    wb = tbl.weighted @ w
    live = wb > 0
    rmax = restricted_maximal_table(space, w)
    totals = (rmax * tbl.weighted).sum(axis=1)
    return float(np.max(totals[live] / wb[live]))


@_finite
def ainfty_exp(space: QuasiMetricSpace, w) -> float:
    """Exponential A_infty constant: sup_B (avg_B w) * exp(avg_B log(1/w))."""
    w = as_weight(space, w)
    if np.any(w == 0):
        raise InputError("exponential A_infty requires strictly positive weight")
    tbl = ball_table(space)
    return float(np.max(tbl.averages(w) * np.exp(-tbl.averages(np.log(w)))))


@_finite
def bump_ap(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    phi: YoungFunction,
) -> float:
    """Orlicz-bump constant: sup_B (avg_B w) * ||sigma**(1/p')||_{Phi,B}**p."""
    w = as_weight(space, w)
    sigma = as_weight(space, sigma)
    pc = p_conjugate(p)
    tbl = ball_table(space)
    norms = luxemburg_norms_over_balls(space, sigma ** (1.0 / pc), phi)[0]
    return float(np.max(tbl.averages(w) * norms**p))


@_finite
def wp_constant(
    space: QuasiMetricSpace,
    sigma,
    p: float,
    phi: YoungFunction,
) -> float:
    """Orlicz generalization of the Fujii-Wilson constant.

    sup over balls B with sigma(B) > 0 of
        (1/sigma(B)) * sum_B M_Phi(sigma**(1/p) * chi_B)**p dmu,
    where the Orlicz maximal function ranges over all canonical balls.
    """
    sigma = as_weight(space, sigma)
    p_conjugate(p)
    tbl = ball_table(space)
    sb = tbl.weighted @ sigma
    live = sb > 0
    g = sigma ** (1.0 / p)
    fmat = g[None, :] * tbl.member[live]          # rows: g * chi_B
    norms = luxemburg_norms_over_balls(space, fmat, phi)  # (k, m)
    mphi = tbl.point_max(norms)                   # rows: M_Phi(g * chi_B)
    totals = (mphi**p * tbl.weighted[live]).sum(axis=1)
    return float(np.max(totals / sb[live]))


@_finite
def sawyer_constant(space: QuasiMetricSpace, w, sigma, p: float) -> float:
    """Sawyer testing constant over balls.

    sup over balls B with sigma(B) > 0 of
        ((1/sigma(B)) * sum_B M(sigma*chi_B)**p * w dmu)**(1/p).
    """
    w = as_weight(space, w)
    sigma = as_weight(space, sigma)
    p_conjugate(p)
    tbl = ball_table(space)
    sb = tbl.weighted @ sigma
    live = sb > 0
    rmax = restricted_maximal_table(space, sigma)
    totals = (rmax**p * (tbl.weighted * w[None, :])).sum(axis=1)
    return float(np.max(totals[live] / sb[live]) ** (1.0 / p))


@dataclass(frozen=True)
class ConstantsReport:
    """All weight constants for one (space, w, sigma, p, Phi) context.

    ``ap`` and ``ainfty_exp`` are None when w has zeros (their formulas need
    a strictly positive weight); every computed value is finite.
    """

    p: float
    phi: str
    ap: float | None
    two_weight_ap: float
    ainfty_fw: float
    ainfty_exp: float | None
    bump_ap: float
    wp: float
    sawyer: float
    n: int


def constants_report(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    phi: YoungFunction,
) -> ConstantsReport:
    """Compute every weight constant in one pass; see ConstantsReport."""
    w = as_weight(space, w)
    sigma = as_weight(space, sigma)
    strictly_positive = not np.any(w == 0)
    return ConstantsReport(
        p=p,
        phi=phi.label,
        ap=ap_constant(space, w, p) if strictly_positive else None,
        two_weight_ap=two_weight_ap(space, w, sigma, p),
        ainfty_fw=ainfty_fujii_wilson(space, w),
        ainfty_exp=ainfty_exp(space, w) if strictly_positive else None,
        bump_ap=bump_ap(space, w, sigma, p, phi),
        wp=wp_constant(space, sigma, p, phi),
        sawyer=sawyer_constant(space, w, sigma, p),
        n=space.n,
    )
