"""JSON specification parsing for spaces, weights, fields, and Young functions."""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import InputError
from .orlicz import Power, PowerLog, YoungFunction
from .space import QuasiMetricSpace, _is_integer, as_field, build_space

__all__ = [
    "load_json",
    "parse_space",
    "parse_weight",
    "parse_phi",
]


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8, a NUL
        raise InputError(f"unreadable file: {path} ({exc})") from exc


def parse_space(obj) -> QuasiMetricSpace:
    if isinstance(obj, str):
        obj = load_json(obj)
    return build_space(obj)


def parse_weight(obj, space: QuasiMetricSpace) -> np.ndarray:
    """Weight spec: raw array, {"type": "array", ...} or {"type": "power", ...}.

    The power form is w[y] = (dist[center][y] + offset)**alpha with a strictly
    positive offset required when alpha < 0, and dist + offset >= 0 when alpha
    is not an integer.  Function vectors parse alike.
    """
    if isinstance(obj, str):
        obj = load_json(obj)
    if isinstance(obj, list):
        return as_field(space, obj, "weight values")
    if not isinstance(obj, dict):
        raise InputError("weight spec must be an array or a JSON object")
    kind = obj.get("type")
    if kind == "array":
        return as_field(space, obj.get("values"), "weight values")
    if kind == "power":
        try:
            alpha = float(obj["alpha"])
            center = obj["center"]
            offset = float(obj.get("offset", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError("power weight needs numeric 'alpha', 'center' (and 'offset')") from exc
        if not _is_integer(center):
            raise InputError(f"power weight 'center' must be an integer, got {center!r}")
        if not 0 <= center < space.n:
            raise InputError(f"power weight center {center} out of range")
        if alpha < 0 and offset <= 0:
            raise InputError("power weight with alpha < 0 requires offset > 0")
        base = space.dist[int(center)] + offset
        neg = np.flatnonzero(base < 0)
        if neg.size and not alpha.is_integer():
            raise InputError(
                f"power weight with non-integer alpha {alpha} needs dist + offset >= 0; "
                f"offset {offset} gives {base[neg[0]]} at index {neg[0]}"
            )
        with np.errstate(over="ignore"):  # as_field refuses the inf entries
            w = base**alpha
        return as_field(space, w, "power weight")
    raise InputError(f"unknown weight type {kind!r}; expected 'array' or 'power'")


def parse_phi(obj) -> YoungFunction:
    """Young function spec: inline "power:s" / "powerlog:s:a", dict, or file path.

    Exponents must satisfy s > 1 (the exponent-1 boundary is reachable only
    through the library API).
    """
    if isinstance(obj, str):
        if obj.startswith("power:") or obj.startswith("powerlog:"):
            parts = obj.split(":")
            try:
                nums = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise InputError(f"malformed Young function spec {obj!r}") from exc
            if parts[0] == "power" and len(nums) == 1:
                return _make_power(*nums)
            if parts[0] == "powerlog" and len(nums) == 2:
                return _make_powerlog(*nums)
            raise InputError(f"malformed Young function spec {obj!r}")
        obj = load_json(obj)
    if not isinstance(obj, dict):
        raise InputError("Young function spec must be an object or inline string")
    family = obj.get("family")
    if family == "power":
        return _make_power(_num(obj, "s"))
    if family == "powerlog":
        return _make_powerlog(_num(obj, "s"), _num(obj, "a"))
    raise InputError(f"unknown Young function family {family!r}")


def _num(obj: dict, key: str, where: str = "Young function spec") -> float:
    """obj[key] as a float; InputError names ``where`` and key if it is not a number."""
    try:
        return float(obj[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where} requires numeric field {key!r}") from exc


def _make_power(s: float) -> Power:
    if not (1.0 < s < math.inf):
        raise InputError(f"power exponent must satisfy s > 1, got {s}")
    return Power(s)


def _make_powerlog(s: float, a: float) -> PowerLog:
    if not (1.0 < s < math.inf):
        raise InputError(f"power-log exponent must satisfy s > 1, got {s}")
    return PowerLog(s, a)  # which refuses a outside [0, inf)
