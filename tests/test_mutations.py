"""Mutation table: each row plants one fault and names the tier-1 check that catches it.

A row quotes the docstring statement it guards; the statement must still be
in that docstring, so a row cannot outlive the property it was written for.
The fault goes in through ``monkeypatch``, and the named check must then fail
an assertion.  Without the fault the check passes: it is a tier-1 test.
"""
import __future__
import inspect
import sys
import textwrap
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import test_czdecomp as czdecomp_tests
import test_orlicz as orlicz_tests
import test_space as space_tests
import test_weights as weights_tests
from shtlab import czdecomp, orlicz, weights
from shtlab.orlicz import Power
from shtlab.space import BallTable, build_space


def rebind(monkeypatch, old, new):
    """Point every module-level name bound to ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if value is old:
                monkeypatch.setattr(module, name, new)


def mutated(func, old, new):
    """``func`` recompiled from its source with its one ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, (func.__qualname__, old)
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope = {}
    exec(code, func.__globals__, scope)
    return scope[func.__name__]


def coarse_log_step(monkeypatch):
    monkeypatch.setattr(orlicz, "LOG_STEP", 1e-4)


def midpoint_past_unseen_end(monkeypatch):
    rule = "np.where(~seen_hi & (x >= hi), hi, np.where(~seen_lo & (x <= lo), lo, 0.5 * (lo + hi)))"
    monkeypatch.setattr(orlicz, "_newton", mutated(orlicz._newton, rule, "0.5 * (lo + hi)"))


ILLINOIS_STOP = "~done & (np.maximum.reduceat(width, starts) <= REL_TOL)"


def loop_wide_stop(monkeypatch):
    monkeypatch.setattr(orlicz, "_illinois", mutated(
        orlicz._illinois, ILLINOIS_STOP, "~done & np.full(len(sizes), width.max() <= REL_TOL)"))


def dropped_done_mask(monkeypatch):
    # a finished batch takes the midpoints of every later step too
    monkeypatch.setattr(orlicz, "_illinois", mutated(
        orlicz._illinois, ILLINOIS_STOP, "np.maximum.reduceat(width, starts) <= REL_TOL"))


def sequential_support_sum(monkeypatch):
    # each row's support summed in order, not by numpy's pairwise row sum
    sums = mutated(orlicz._power_sums, "dense.sum(axis=1)", "np.bincount(rows, t, len(dense))")
    monkeypatch.setattr(orlicz, "_power_sums", sums)


def scaled(constant):
    """The fault that scales every value of ``constant`` by 1 + 1e-9."""
    def fault(monkeypatch):
        rebind(monkeypatch, constant, lambda *args: constant(*args) * (1.0 + 1e-9))

    fault.__name__ = f"scaled_{constant.__name__}"
    return fault


def scaled_power_form(constant):
    """The fault that scales the value of ``constant`` under a ``Power`` Phi, its
    closed form, by 1 + 1e-9."""
    def fault(monkeypatch):
        rebind(monkeypatch, constant, lambda space, *args: constant(space, *args) * (
            1.0 + 1e-9 if isinstance(args[-1], Power) else 1.0))

    fault.__name__ = f"scaled_power_{constant.__name__}"
    return fault


def closed_balls(monkeypatch):
    dilated = mutated(BallTable.dilated, "dist[self.centers] < (", "dist[self.centers] <= (")
    monkeypatch.setattr(BallTable, "dilated", dilated)


def dropped_ball(monkeypatch):
    init = BallTable.__init__

    def init_without_middle_row(self, space):
        init(self, space)
        keep = np.arange(self.m) != self.m // 2
        for name in ("centers", "radii", "member", "weighted", "mu"):
            setattr(self, name, getattr(self, name)[keep])
        self.by_radius = np.lexsort((self.centers, -self.radii))

    monkeypatch.setattr(BallTable, "__init__", init_without_middle_row)


def prefix_point_max(monkeypatch):
    # a running maximum from each center's smallest ball up
    point_max = mutated(BallTable.point_max, "self.starts[1:] - 1 - down", "self.starts[:-1] + down")
    monkeypatch.setattr(BallTable, "point_max", point_max)


def memo_key_without(name):
    """The fault that leaves input ``name`` out of the weight constants' memo key."""
    def fault(monkeypatch):
        bind = mutated(weights._bind, 'if key != "space"', f'if key not in ("space", "{name}")')
        monkeypatch.setattr(weights, "_bind", bind)

    fault.__name__ = f"memo_key_without_{name}"
    return fault


def reversed_vitali_order(monkeypatch):
    select = czdecomp._select_level
    rebind(monkeypatch, select,
           mutated(select, "for r in order[first]:", "for r in order[first][::-1]:"))


def inclusive_level(monkeypatch):
    select = czdecomp._select_level
    rebind(monkeypatch, select, mutated(select, "avg[order] > lam", "avg[order] >= lam"))


def window_over_subsets(monkeypatch):
    # the old property iii) test: table balls inside B_i, not around it
    check = czdecomp.verify_cz_properties
    rebind(monkeypatch, check,
           mutated(check, "~(masks @ ~tbl.member.T)", "~(tbl.member @ ~masks.T).T"))


@dataclass(frozen=True)
class Row:
    owner: object          # whose docstring states the property
    statement: str         # quoted from that docstring
    fault: Callable        # plants the fault through monkeypatch
    check: Callable        # the tier-1 test that must then fail
    lines: tuple = ()      # lengths of the 1-D uniform grids the check takes as fixtures;
                           # 1 and 2 points build the one_point and two_point fixtures


ROWS = [
    Row(orlicz._newton,
        "An element is frozen once its Newton step is at most LOG_STEP; convergence "
        "is quadratic, so that last step leaves an error far below one ulp.",
        coarse_log_step, orlicz_tests.test_power_log_inversions_round_trip),
    Row(orlicz._newton,
        "A Newton point outside the bracket moves to the end it crossed if that end was "
        "never evaluated, and to the bracket's midpoint otherwise.",
        midpoint_past_unseen_end, orlicz_tests.test_newton_luxemburg_solves_take_few_evaluations),
    Row(orlicz._illinois,
        "A batch takes its midpoints at the first step its own widest bracket is within REL_TOL",
        loop_wide_stop, orlicz_tests.test_power_batches_keep_their_bits_in_one_illinois_loop),
    Row(orlicz._illinois,
        "and is then done; the loop steps every element until every batch is done",
        dropped_done_mask, orlicz_tests.test_power_batches_keep_their_bits_in_one_illinois_loop),
    Row(orlicz._power_sums,
        "the buffer is summed by the same numpy row reduction: every sum has the bits of "
        "the dense form, pairwise order included.",
        sequential_support_sum, orlicz_tests.test_power_sums_on_the_support_have_the_dense_bits),
    Row(weights.ap_constant, "sup_B (avg_B w) * (avg_B w**(-1/(p-1)))**(p-1).",
        scaled(weights.ap_constant), weights_tests.test_ap_ones, (4,)),
    Row(weights.two_weight_ap, "sup_B (avg_B w) * (avg_B sigma)**(p-1).",
        scaled(weights.two_weight_ap), weights_tests.test_two_weight_examples, (4,)),
    Row(weights.ainfty_fujii_wilson,
        "Fujii-Wilson constant: sup_B (1/w(B)) * sum_B M(w*chi_B) dmu.",
        scaled(weights.ainfty_fujii_wilson), weights_tests.test_fujii_wilson_examples, (4, 1)),
    Row(weights.ainfty_exp,
        "Exponential A_infty constant: sup_B (avg_B w) * exp(avg_B log(1/w)).",
        scaled(weights.ainfty_exp), weights_tests.test_ainfty_exp, (4, 2)),
    Row(weights.wp_constant,
        "sup over balls B with sigma(B) > 0 of (1/sigma(B)) * sum_B "
        "M_Phi(sigma**(1/p) * chi_B)**p dmu",
        scaled(weights.wp_constant), weights_tests.test_conjugate_path_matches_power_identities),
    Row(weights.bump_ap, "Orlicz-bump constant: sup_B (avg_B w) * ||sigma**(1/p')||_{Phi,B}**p.",
        scaled(weights.bump_ap), weights_tests.test_conjugate_path_matches_power_identities),
    Row(weights.bump_ap, "For Phi = Power(s) the norm is the s-mean",
        scaled_power_form(weights.bump_ap), weights_tests.test_power_closed_forms_agree_with_the_luxemburg_route),
    Row(weights.wp_constant, "For Phi = Power(s), M_Phi(h)**p = M(h**s)**(p/s)",
        scaled_power_form(weights.wp_constant),
        weights_tests.test_power_closed_forms_agree_with_the_luxemburg_route),
    Row(weights.sawyer_constant,
        "sup over balls B with sigma(B) > 0 of ((1/sigma(B)) * sum_B M(sigma*chi_B)**p * w dmu)**(1/p).",
        scaled(weights.sawyer_constant), weights_tests.test_sawyer_matches_oracle_random),
    Row(BallTable.dilated, "Membership (m, n) of every dilate lam*B: dist < lam * r(B).",
        closed_balls, weights_tests.test_dilated_matches_ball_mask),
    Row(sys.modules["shtlab.space"],
        "per center the canonical radii (the positive distance values, plus one radius "
        "past the maximum) realize every achievable member set exactly once.",
        dropped_ball, space_tests.test_enumeration_covers_all_member_sets),
    Row(BallTable.point_max,
        "a running maximum from each center's largest ball down, read at depth, then the "
        "max over centers.",
        prefix_point_max, space_tests.test_point_max_equals_the_masked_form, (1, 2)),
    Row(weights._bind,
        "the key that a finite value is kept under on the space: the name and every input "
        "but the space",
        memo_key_without("phi"), weights_tests.test_memo_keeps_one_value_per_input),
    Row(weights._bind,
        "the key that a finite value is kept under on the space: the name and every input "
        "but the space",
        memo_key_without("p"), weights_tests.test_memo_keeps_one_value_per_input),
    Row(czdecomp,
        "keep a Vitali subfamily: sort by radius descending, center ascending, keep a "
        "ball iff disjoint from all kept so far.",
        reversed_vitali_order,
        czdecomp_tests.test_vitali_pass_keeps_the_larger_of_two_meeting_candidates, (4,)),
    Row(czdecomp, "Omega = {x : Mf(x) > lam}", inclusive_level,
        czdecomp_tests.test_constant_field_empty_decomposition, (4,)),
    Row(czdecomp,
        "iii) any canonical ball containing B_i with radius >= eta*r(B_i) has avg over "
        "its eta-dilate at most lam.",
        window_over_subsets,
        czdecomp_tests.test_enclosing_balls_whose_eta_dilate_exceeds_the_level, (8,)),
]


def flat(text):
    return " ".join(text.split())


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.fault.__name__)
def test_fault_fails_its_check(row, monkeypatch):
    assert flat(row.statement) in flat(inspect.getdoc(row.owner))
    spaces = [build_space({"type": "grid", "shape": [n]}) for n in row.lines]
    row.fault(monkeypatch)
    with pytest.raises(AssertionError):
        row.check(*spaces)
