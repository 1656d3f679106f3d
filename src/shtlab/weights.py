"""Weight constants: Muckenhoupt, two-weight, A_infty, Orlicz-bump, Sawyer.

Every constant is a supremum over balls; here each is an exact maximum over
the canonical family.  Conventions:

* suprema skip balls where the normalizing weight vanishes (0/0 := 0);
* the one-weight A_p and the exponential A_infty constant demand a strictly
  positive weight, since they involve w**(-1/(p-1)) or log(1/w);
* two-weight constants accept weights with zeros;
* a constant whose value is inf or NaN raises InputError naming itself;
* ``bump_ap`` and ``wp_constant`` under ``Power(s)`` are closed forms in ball
  averages and the maximal function, scaled free of the range of w and sigma,
  on spaces whose mass ratio is finite; any other Phi reads Luxemburg norms.
"""
from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from .errors import InputError
from .maximal import hl_maximal, restricted_maximal_table
from .orlicz import Power, YoungFunction, _mass_ratio, _norms_core, p_conjugate
from .space import QuasiMetricSpace, as_field, ball_table

__all__ = [
    "as_weight",
    "ap_constant",
    "two_weight_ap",
    "ainfty_fujii_wilson",
    "ainfty_exp",
    "bump_ap",
    "wp_constant",
    "solve_orlicz_constants",
    "sawyer_constant",
    "constants_report",
]


def as_weight(space: QuasiMetricSpace, values) -> np.ndarray:
    """A field (see ``space.as_field``) with some strictly positive entry."""
    w = as_field(space, values, "weight")
    if not np.any(w > 0):
        raise InputError("weight must have a strictly positive entry")
    return w


_signature = functools.cache(inspect.signature)  # read once per function


def _bind(constant, *args, **kwargs):
    """A call of ``constant``: its inputs, the weights validated, and the key that a
    finite value is kept under on the space: the name and every input but the space,
    an array by its bits."""
    inputs = _signature(constant).bind(*args, **kwargs).arguments
    inputs.update({k: as_weight(inputs["space"], inputs[k]) for k in ("w", "sigma") if k in inputs})
    return inputs, (constant.__name__,) + tuple(value.tobytes() if isinstance(value, np.ndarray) else value
                                               for key, value in inputs.items() if key != "space")


def _finite(constant):
    """Wrap a weight constant: its value, or an InputError naming it when the value is
    inf or NaN.  A finite value is kept on the space under its call's key (``_bind``), so
    each constant is computed once per space and inputs."""
    @functools.wraps(constant)
    def checked(*args, **kwargs):
        inputs, key = _bind(constant, *args, **kwargs)
        space = inputs["space"]
        if key not in space._memo:
            value = constant(**inputs)
            if not math.isfinite(value):
                raise InputError(f"{constant.__name__} is {value}, not a finite number")
            space._memo[key] = value
        return space._memo[key]

    return checked


@_finite
def ap_constant(space: QuasiMetricSpace, w, p: float) -> float:
    """sup_B (avg_B w) * (avg_B w**(-1/(p-1)))**(p-1)."""
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
    p_conjugate(p)
    tbl = ball_table(space)
    return float(np.max(tbl.averages(w) * tbl.averages(sigma) ** (p - 1.0)))


@_finite
def ainfty_fujii_wilson(space: QuasiMetricSpace, w) -> float:
    """Fujii-Wilson constant: sup_B (1/w(B)) * sum_B M(w*chi_B) dmu."""
    tbl = ball_table(space)
    _mass_ratio(tbl.mu, space.mass)  # beyond it a ball average of w can underflow to 0
    wb = tbl.weighted @ w
    live = wb > 0
    rmax = restricted_maximal_table(space, w)
    totals = (rmax * tbl.weighted).sum(axis=1)
    return float(np.max(totals[live] / wb[live]))


@_finite
def ainfty_exp(space: QuasiMetricSpace, w) -> float:
    """Exponential A_infty constant: sup_B (avg_B w) * exp(avg_B log(1/w))."""
    if np.any(w == 0):
        raise InputError("exponential A_infty requires strictly positive weight")
    tbl = ball_table(space)
    return float(np.max(tbl.averages(w) * np.exp(-tbl.averages(np.log(w)))))


def solve_orlicz_constants(space: QuasiMetricSpace, requests) -> list:
    """The values of ``requests``, each (``_bump_luxemburg`` or ``_wp_luxemburg``, *the
    arguments after the space), from one Luxemburg solve in which the requests on equal
    fields share one job.  Each finite value is kept on the space under its route's key
    (``_bind``), which a later request reads; then the first value that is not finite
    raises InputError naming ``bump_ap`` or ``wp_constant``."""
    jobs, reads = {}, []
    for route, *args in requests:
        inputs, key = _bind(route, space, *args)
        if key in space._memo:
            reads.append((route, key, None, None, space._memo[key]))
            continue
        fields, value = route(**inputs)
        job = fields.shape, fields.tobytes()
        jobs.setdefault(job, (fields, {}))[1][inputs["phi"]] = None  # its phis in order, each once
        reads.append((route, key, job, inputs["phi"], value))
    tbl = ball_table(space)
    sweeps = jobs and _norms_core(tbl.member, tbl.weighted, tbl.mu, space.mass,
                                  [(np.atleast_2d(fields), list(phis)) for fields, phis in jobs.values()])
    norms = {job: dict(zip(phis, out)) for (job, (_, phis)), out in zip(jobs.items(), sweeps)}
    values = [value if job is None else value(norms[job][phi]) for _, _, job, phi, value in reads]
    space._memo.update((key, v) for (_, key, *_), v in zip(reads, values) if math.isfinite(v))
    for (route, *_), value in zip(reads, values):
        if not math.isfinite(value):
            raise InputError(f"{_PUBLIC[route]} is {value}, not a finite number")
    return values


def _bump_luxemburg(space: QuasiMetricSpace, w, sigma, p: float, phi: YoungFunction):
    """``bump_ap``'s fields sigma**(1/p'), whose norms under phi it reads, and its
    value as a function of those norms."""
    pc = p_conjugate(p)
    tbl = ball_table(space)
    return sigma ** (1.0 / pc), lambda norms: float(np.max(tbl.averages(w) * norms[0] ** p))


def _wp_luxemburg(space: QuasiMetricSpace, sigma, p: float, phi: YoungFunction):
    """``wp_constant``'s fields, the rows sigma**(1/p) * chi_B, whose norms under phi
    it reads, and its value as a function of those norms."""
    p_conjugate(p)
    tbl = ball_table(space)
    sb = tbl.weighted @ sigma
    live = sb > 0
    g = sigma ** (1.0 / p)
    # the point maxima of the norms of the rows g * chi_B are M_Phi(g * chi_B)
    return g[None, :] * tbl.member[live], lambda norms: float(np.max(
        (tbl.point_max(norms) ** p * tbl.weighted[live]).sum(axis=1) / sb[live]))


_PUBLIC = {_bump_luxemburg: "bump_ap", _wp_luxemburg: "wp_constant"}  # the names a route's refusal gives


@_finite
def bump_ap(space: QuasiMetricSpace, w, sigma, p: float, phi: YoungFunction) -> float:
    """Orlicz-bump constant: sup_B (avg_B w) * ||sigma**(1/p')||_{Phi,B}**p.

    For Phi = Power(s) the norm is the s-mean: with S_B = max_B sigma,
    ||sigma**(1/p')||_{s,B}**p = S_B**(p-1) * (avg_B (sigma/S_B)**(s/p'))**(p/s),
    taken of w and sigma scaled by powers of two to maxima in [1/2, 1); the value,
    of degree 1 in w and p - 1 in sigma, is scaled back by one power of two, and
    InputError if no scaled term is a normal float.  Other Phi: ``_bump_luxemburg``.
    """
    if not isinstance(phi, Power):
        return solve_orlicz_constants(space, [(_bump_luxemburg, w, sigma, p, phi)])[0]
    pc = p_conjugate(p)
    tbl = ball_table(space)
    _mass_ratio(tbl.mu, space.mass)
    kw, ks = (math.frexp(float(v.max()))[1] for v in (w, sigma))
    w, sigma = np.ldexp(w, -kw), np.ldexp(sigma, -ks)
    held = tbl.member * sigma
    top = held.max(axis=1)  # S_B
    held /= np.where(top > 0, top, 1.0)[:, None]
    mean = (held ** (phi.s / pc) * tbl.weighted).sum(axis=1) / tbl.mu
    value = np.max(tbl.averages(w) * top ** (p - 1.0) * mean ** (p / phi.s))
    if not value >= np.finfo(float).tiny:
        raise InputError(f"bump_ap under {phi.label} underflows with w and sigma scaled to maxima near 1")
    scale = kw + (p - 1.0) * ks
    return float(np.ldexp(value * 2.0 ** (scale % 1.0), math.floor(scale)))


@_finite
def wp_constant(space: QuasiMetricSpace, sigma, p: float, phi: YoungFunction) -> float:
    """Orlicz generalization of the Fujii-Wilson constant.

    sup over balls B with sigma(B) > 0 of
        (1/sigma(B)) * sum_B M_Phi(sigma**(1/p) * chi_B)**p dmu,
    where the Orlicz maximal function ranges over all canonical balls.
    For Phi = Power(s), M_Phi(h)**p = M(h**s)**(p/s), so with S_B = max_B sigma
    and F_B = (sigma * chi_B / S_B)**(s/p) the term of B is the scale-free
        sum_B M(F_B)**(p/s) dmu / sum_B (sigma/S_B) dmu.
    Any other Phi reads Luxemburg norms (``_wp_luxemburg``).
    """
    if not isinstance(phi, Power):
        return solve_orlicz_constants(space, [(_wp_luxemburg, sigma, p, phi)])[0]
    p_conjugate(p)
    tbl = ball_table(space)
    _mass_ratio(tbl.mu, space.mass)
    top = (tbl.member * sigma).max(axis=1)  # S_B, and sigma / S_B on each ball with sigma(B) > 0
    held, weighted = tbl.member[top > 0] * sigma / top[top > 0, None], tbl.weighted[top > 0]
    rmax = hl_maximal(space, held ** (phi.s / p))  # M(F_B), row by row
    return float(np.max((rmax ** (p / phi.s) * weighted).sum(axis=1) / (held * weighted).sum(axis=1)))


@_finite
def sawyer_constant(space: QuasiMetricSpace, w, sigma, p: float) -> float:
    """Sawyer testing constant over balls.

    sup over balls B with sigma(B) > 0 of
        ((1/sigma(B)) * sum_B M(sigma*chi_B)**p * w dmu)**(1/p).
    """
    p_conjugate(p)
    tbl = ball_table(space)
    sb = tbl.weighted @ sigma
    live = sb > 0
    rmax = restricted_maximal_table(space, sigma)
    totals = (rmax**p * (tbl.weighted * w[None, :])).sum(axis=1)
    return float(np.max(totals[live] / sb[live]) ** (1.0 / p))


def constants_report(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    phi: YoungFunction,
) -> dict:
    """Every weight constant for one (space, w, sigma, p, Phi) context.

    ``ap`` and ``ainfty_exp`` are None when w has zeros (their formulas need
    a strictly positive weight); every computed value is finite.
    """
    w = as_weight(space, w)
    sigma = as_weight(space, sigma)
    strictly_positive = not np.any(w == 0)
    return {
        "p": p,
        "phi": phi.label,
        "ap": ap_constant(space, w, p) if strictly_positive else None,
        "two_weight_ap": two_weight_ap(space, w, sigma, p),
        "ainfty_fw": ainfty_fujii_wilson(space, w),
        "ainfty_exp": ainfty_exp(space, w) if strictly_positive else None,
        "bump_ap": bump_ap(space, w, sigma, p, phi),
        "wp": wp_constant(space, sigma, p, phi),
        "sawyer": sawyer_constant(space, w, sigma, p),
        "n": space.n,
    }
