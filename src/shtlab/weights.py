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
import inspect
import math

import numpy as np

from .errors import InputError
from .maximal import restricted_maximal_table
from .orlicz import YoungFunction, _norms_core, p_conjugate
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


def _finite(constant):
    """Wrap a weight constant: its value, or an InputError naming it when the value
    is inf or NaN.  A finite value is kept on the space, keyed on the name and the
    validated inputs, so each constant is computed once per space and inputs.
    The wrapper's ``bind`` gives a call's validated inputs and its key."""
    signature = inspect.signature(constant)

    def bind(*args, **kwargs):
        inputs = signature.bind(*args, **kwargs).arguments
        # the weights are validated here, for the key and for the body
        inputs.update({k: as_weight(inputs["space"], inputs[k]) for k in ("w", "sigma") if k in inputs})
        return inputs, _memo_key(constant.__name__, inputs)

    @functools.wraps(constant)
    def checked(*args, **kwargs):
        inputs, key = bind(*args, **kwargs)
        space = inputs["space"]
        if key not in space._memo:
            value = constant(**inputs)
            if not math.isfinite(value):
                raise InputError(f"{constant.__name__} is {value}, not a finite number")
            space._memo[key] = value
        return space._memo[key]

    checked.bind = bind
    return checked


def _memo_key(name, inputs):
    """The name and every input but the space, an array by its bits."""
    return (name,) + tuple(value.tobytes() if isinstance(value, np.ndarray) else value
                           for key, value in inputs.items() if key != "space")


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


def _from_norms(plan):
    """The weight constant read off Luxemburg norms: on its inputs, ``plan``
    gives the fields whose norms under ``phi`` it reads and the constant as a
    function of those norms.  A call solves its one request."""
    constant = _finite(functools.wraps(plan)(
        lambda space, **inputs: solve_orlicz_constants(space, [(constant, *inputs.values())])[0]))
    constant.plan = plan
    return constant


def solve_orlicz_constants(space: QuasiMetricSpace, requests) -> list:
    """The values of ``requests``, each (``bump_ap`` or ``wp_constant``, *the
    call's arguments after the space), from one Luxemburg solve in which the
    requests on equal fields share one job.  Each finite value is kept on the
    space under the key of its own call, which then reads it; a value that is
    not finite is not kept, so its own call still raises."""
    jobs, reads = {}, []
    for constant, *args in requests:
        inputs, key = constant.bind(space, *args)
        fields, value = constant.plan(**inputs)
        job = fields.shape, fields.tobytes()
        jobs.setdefault(job, (fields, {}))[1][inputs["phi"]] = None  # its phis in order, each once
        reads.append((key, job, inputs["phi"], value))
    tbl = ball_table(space)
    sweeps = _norms_core(tbl.member, tbl.weighted, tbl.mu, space.mass,
                         [(np.atleast_2d(fields), list(phis)) for fields, phis in jobs.values()])
    norms = {job: dict(zip(phis, out)) for (job, (_, phis)), out in zip(jobs.items(), sweeps)}
    values = [value(norms[job][phi]) for _, job, phi, value in reads]
    space._memo.update((key, v) for (key, *_), v in zip(reads, values) if math.isfinite(v))
    return values


@_from_norms
def bump_ap(
    space: QuasiMetricSpace,
    w,
    sigma,
    p: float,
    phi: YoungFunction,
) -> float:
    """Orlicz-bump constant: sup_B (avg_B w) * ||sigma**(1/p')||_{Phi,B}**p."""
    pc = p_conjugate(p)
    tbl = ball_table(space)
    return sigma ** (1.0 / pc), lambda norms: float(np.max(tbl.averages(w) * norms[0] ** p))


@_from_norms
def wp_constant(space: QuasiMetricSpace, sigma, p: float, phi: YoungFunction) -> float:
    """Orlicz generalization of the Fujii-Wilson constant.

    sup over balls B with sigma(B) > 0 of
        (1/sigma(B)) * sum_B M_Phi(sigma**(1/p) * chi_B)**p dmu,
    where the Orlicz maximal function ranges over all canonical balls.
    """
    p_conjugate(p)
    tbl = ball_table(space)
    sb = tbl.weighted @ sigma
    live = sb > 0
    g = sigma ** (1.0 / p)
    # the point maxima of the norms of the rows g * chi_B are M_Phi(g * chi_B)
    return g[None, :] * tbl.member[live], lambda norms: float(np.max(
        (tbl.point_max(norms) ** p * tbl.weighted[live]).sum(axis=1) / sb[live]))


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
