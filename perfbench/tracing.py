"""Per-layer tracing from outside the program.

``install`` wraps the public functions of each shtlab module at every import
binding (``weights.luxemburg_norms_over_balls`` and ``verify.wp_constant`` are
rebound as well as the definitions), so nested calls are attributed to the
layer that does the work.  Each wrapper is a span: its self time is its
duration minus the time of the spans it caused, and goes to the span's metric
group, or to the nearest enclosing span's group when it has none.  Young
function evaluations are counted by class-level wrappers on ``Power``,
``PowerLog`` and ``NumericConjugate`` and are not spans, so their time stays
in the enclosing Luxemburg sweep.

Work done inside the hooks (the useful-root analysis for ``wp_constant``) is
charged to no layer.
"""
from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "specio", "suite", "verify", "weights", "orlicz", "maximal", "czdecomp", "space")

# span name -> self-time metric; names not listed charge their caller's metric
GROUPS = {
    "cli.main": "cli.self_s",
    "cli.build_parser": "cli.self_s",
    "specio.load_json": "specio.self_s",
    "specio.parse_space": "specio.self_s",
    "specio.parse_weight": "specio.self_s",
    "specio.parse_field": "specio.self_s",
    "specio.parse_phi": "specio.self_s",
    "suite.run_suite": "suite.self_s",
    "verify.verify_main_chain": "verify.chain_self_s",
    "verify.verify_reductions": "verify.reductions_self_s",
    "verify.opnorm_lower_bound": "verify.opnorm_self_s",
    "verify.weak_rhi_probe": "verify.rhi_self_s",
    "weights.wp_constant": "weights.wp_self_s",
    "weights.bump_ap": "weights.bump_self_s",
    "weights.sawyer_constant": "weights.sawyer_self_s",
    "weights.ainfty_fujii_wilson": "weights.fw_self_s",
    "orlicz.luxemburg_norms_over_balls": "orlicz.sweep_self_s",
    "orlicz.luxemburg_norm": "orlicz.sweep_self_s",
    "space.ball_table": "space.table_self_s",
    "space.BallTable": "space.table_self_s",
    "space.space_profile": "space.profile_self_s",
    "space.check_engulfing": "space.checks_self_s",
    "space.check_dilation_bounds": "space.checks_self_s",
    "czdecomp.cz_decompose": "czdecomp.decompose_self_s",
    "czdecomp.multi_level_decompose": "czdecomp.decompose_self_s",
    "czdecomp.verify_cz_properties": "czdecomp.check_self_s",
    "czdecomp.verify_disjointing": "czdecomp.check_self_s",
}

SUITE_PHASES = ("space_checks", "reductions", "chains", "opnorm", "rhi", "probes", "cz", "multilevel")

# metric -> unit, in report order; counts must repeat exactly between runs
COUNTS = {
    "orlicz.sweep_calls": "count",
    "orlicz.norm_pairs": "count",
    "orlicz.phi_evals": "count",
    "orlicz.phi_elems": "count",
    "orlicz.dphi_evals": "count",
    "orlicz.dphi_elems": "count",
    "orlicz.roots_returned": "count",
    "orlicz.roots_useful": "count",
    "maximal.rmax_calls": "count",
    "maximal.rmax_cells": "count",
    "maximal.hl_calls": "count",
    "space.ball_table_calls": "count",
    "space.tables_built": "count",
    "space.balls": "count",
    "czdecomp.levels": "count",
    "czdecomp.selected_balls": "count",
    "czdecomp.omega_points": "count",
    "verify.opnorm_trials": "count",
}

_ANALYSIS_CELLS = 2_000_000  # (rows x balls x points) workspace of the useful-root analysis


class Tracer:
    """Span stack plus accumulated self times, counts and suite phase times."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [metric group, time of child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.phase_s: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        """Forget what was recorded; the installed wrappers keep reporting here."""
        self.self_s.clear()
        self.counts.clear()
        self.phase_s.clear()

    def count_snapshot(self) -> dict[str, int]:
        return {k: int(self.counts[k]) for k in COUNTS}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the spans recorded since the last reset."""
        out = {name: (float(self.counts[name]), unit) for name, unit in COUNTS.items()}
        returned = self.counts["orlicz.roots_returned"]
        calls = self.counts["space.ball_table_calls"]
        out["orlicz.pair_useful_ratio"] = (
            self.counts["orlicz.roots_useful"] / returned if returned else 0.0, "ratio")
        out["space.table_hit_ratio"] = (
            1.0 - self.counts["space.tables_built"] / calls if calls else 0.0, "ratio")
        for group in sorted(set(GROUPS.values())):
            out[group] = (self.self_s[group], "s")
        for phase in SUITE_PHASES:
            out[f"suite.{phase}_s"] = (self.phase_s[phase], "s")
        return out

    def span(self, fn, name: str, hook=None):
        """Wrap ``fn`` as a span named ``name``; ``hook`` sees each result."""
        group = GROUPS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            eff = group or (stack[-1][0] if stack else None)
            frame = [eff, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                if eff is not None:
                    self.self_s[eff] += dt - frame[1]
            if hook is not None:
                t1 = perf_counter()
                hook(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return result

        return wrapper


def _count_calls(fn, counts, calls_key, elems_key):
    @functools.wraps(fn)
    def wrapper(self, t, *args, **kwargs):
        counts[calls_key] += 1
        counts[elems_key] += int(np.size(t))
        return fn(self, t, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Patch the loaded shtlab modules so every public call reports to ``tracer``."""
    mods = {layer: importlib.import_module(f"shtlab.{layer}") for layer in LAYERS}
    space_mod, orlicz_mod = mods["space"], mods["orlicz"]
    counts = tracer.counts
    original_ball_table = space_mod.ball_table

    def add(key, amount=1):
        counts[key] += amount

    def on_sweep(args, result):
        add("orlicz.sweep_calls")
        add("orlicz.norm_pairs", int(result.size))
        if tracer.stack and tracer.stack[-1][0] == "weights.wp_self_s":
            returned, useful = _useful_roots(original_ball_table(args[0]).member, result)
            add("orlicz.roots_returned", returned)
            add("orlicz.roots_useful", useful)

    def on_rmax(args, result):
        add("maximal.rmax_calls")
        add("maximal.rmax_cells", int(result.size))

    def on_table(args, result):
        add("space.tables_built")
        add("space.balls", args[0].m)

    def on_cz(args, dec):
        add("czdecomp.levels")
        add("czdecomp.selected_balls", len(dec.selected))
        add("czdecomp.omega_points", int(dec.omega.size))

    def on_multilevel(args, fam):
        add("czdecomp.levels", len(fam.entries))
        add("czdecomp.selected_balls", sum(len(e.balls) for e in fam.entries))
        add("czdecomp.omega_points", sum(int(e.omega.size) for e in fam.entries))

    def on_suite(args, result):
        for phase, seconds in result[1].items():
            tracer.phase_s[phase] += seconds

    hooks = {
        "orlicz.luxemburg_norms_over_balls": on_sweep,
        "maximal.restricted_maximal_table": on_rmax,
        "maximal.hl_maximal": lambda a, r: add("maximal.hl_calls"),
        "space.ball_table": lambda a, r: add("space.ball_table_calls"),
        "czdecomp.cz_decompose": on_cz,
        "czdecomp.multi_level_decompose": on_multilevel,
        "verify.opnorm_lower_bound": lambda a, r: add("verify.opnorm_trials", int(r.trials)),
        "suite.run_suite": on_suite,
    }

    wrapped: dict[types.FunctionType, types.FunctionType] = {}
    for layer, mod in mods.items():
        for name in mod.__all__:
            obj = getattr(mod, name)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                key = f"{layer}.{name}"
                wrapped[obj] = tracer.span(obj, key, hooks.get(key))
    for modname, mod in list(sys.modules.items()):
        if modname != "shtlab" and not modname.startswith("shtlab."):
            continue
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in wrapped:
                setattr(mod, attr, wrapped[val])

    table_cls = space_mod.BallTable
    table_cls.__init__ = tracer.span(table_cls.__init__, "space.BallTable", on_table)
    for cls in (orlicz_mod.Power, orlicz_mod.PowerLog, orlicz_mod.NumericConjugate):
        cls.__call__ = _count_calls(cls.__call__, counts, "orlicz.phi_evals", "orlicz.phi_elems")
        cls.derivative = _count_calls(cls.derivative, counts, "orlicz.dphi_evals", "orlicz.dphi_elems")


def _useful_roots(member: np.ndarray, norms: np.ndarray) -> tuple[int, int]:
    """(roots returned, roots that attain some point maximum) of one sweep.

    ``wp_constant`` takes, for every row and point y, the maximum of the norms
    over the balls containing y; a returned root (norm > 0) is useful when it
    equals one of those maxima.
    """
    m, n = member.shape
    returned = norms > 0
    useful = 0
    chunk = max(1, _ANALYSIS_CELLS // max(1, m * n))
    for start in range(0, norms.shape[0], chunk):
        block = norms[start:start + chunk]
        masked = np.where(member[None, :, :], block[:, :, None], -np.inf)
        point_max = masked.max(axis=1)
        hit = (member[None, :, :] & (masked == point_max[:, None, :])).any(axis=2)
        useful += int((hit & returned[start:start + chunk]).sum())
    return int(returned.sum()), useful
