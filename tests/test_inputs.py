"""Every public entry point that takes a vector on a space validates it through
``shtlab.space.as_field``: a bad entry or length is an InputError that says
where the fault is."""
import math

import numpy as np
import pytest

from shtlab.czdecomp import cz_decompose
from shtlab.errors import InputError
from shtlab.maximal import hl_maximal, orlicz_maximal, restricted_maximal_table
from shtlab.orlicz import Power, luxemburg_norms_over_balls
from shtlab.specio import parse_weight
from shtlab.weights import (
    ainfty_exp,
    ainfty_fujii_wilson,
    ap_constant,
    bump_ap,
    constants_report,
    sawyer_constant,
    two_weight_ap,
    wp_constant,
)

ONES = [1.0, 1.0, 1.0, 1.0]

BAD_VECTORS = {
    "nan": ([1.0, math.nan, 1.0, 1.0], "contains NaN at index 1"),
    "inf": ([1.0, 1.0, math.inf, 1.0], "contains an infinite value at index 2"),
    "negative": ([1.0, 1.0, 1.0, -1.0], "contains a negative value at index 3"),
    "length": ([1.0, 1.0, 1.0], r"must be a length-4 array, got shape \(3,\)"),
    "ragged": ([[1.0], [2.0, 3.0]], r"must be an array of numbers \(setting an array element"),
}

ENTRY_POINTS = {
    "hl_maximal": lambda sp, v: hl_maximal(sp, v),
    "restricted_maximal_table": lambda sp, v: restricted_maximal_table(sp, v),
    "orlicz_maximal": lambda sp, v: orlicz_maximal(sp, v, Power(2.0)),
    "luxemburg_norms_over_balls": lambda sp, v: luxemburg_norms_over_balls(sp, v, Power(2.0)),
    "cz_decompose": lambda sp, v: cz_decompose(sp, v, 10.0),
    "parse_weight": lambda sp, v: parse_weight(v, sp),
    "parse_weight_array": lambda sp, v: parse_weight({"type": "array", "values": v}, sp),
    "ap_constant": lambda sp, v: ap_constant(sp, v, 2.0),
    "two_weight_ap_w": lambda sp, v: two_weight_ap(sp, v, ONES, 2.0),
    "two_weight_ap_sigma": lambda sp, v: two_weight_ap(sp, ONES, v, 2.0),
    "ainfty_fujii_wilson": lambda sp, v: ainfty_fujii_wilson(sp, v),
    "ainfty_exp": lambda sp, v: ainfty_exp(sp, v),
    "bump_ap": lambda sp, v: bump_ap(sp, ONES, v, 2.0, Power(2.0)),
    "wp_constant": lambda sp, v: wp_constant(sp, v, 2.0, Power(2.0)),
    "sawyer_constant": lambda sp, v: sawyer_constant(sp, v, ONES, 2.0),
    "constants_report": lambda sp, v: constants_report(sp, ONES, v, 2.0, Power(2.0)),
}


@pytest.mark.parametrize("bad", BAD_VECTORS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_vector_inputs_rejected_with_cause(line4, entry, bad):
    values, message = BAD_VECTORS[bad]
    with pytest.raises(InputError, match=message):
        ENTRY_POINTS[entry](line4, values)


WEIGHT_CONSTANTS = ["ap_constant", "two_weight_ap_w", "two_weight_ap_sigma", "ainfty_fujii_wilson",
                    "ainfty_exp", "bump_ap", "wp_constant", "sawyer_constant", "constants_report"]


@pytest.mark.parametrize("bad", BAD_VECTORS)
@pytest.mark.parametrize("entry", WEIGHT_CONSTANTS)
def test_a_memoised_constant_still_refuses_bad_vectors(line4, entry, bad):
    # the memo keys on validated inputs, so a value kept on the space changes no error
    ENTRY_POINTS[entry](line4, ONES)
    values, message = BAD_VECTORS[bad]
    with pytest.raises(InputError, match=message):
        ENTRY_POINTS[entry](line4, values)


def test_norm_matrix_rows_are_named(line4):
    fmat = [ONES, [1.0, math.nan, 1.0, 1.0]]
    with pytest.raises(InputError, match="row 1 of fmat contains NaN at index 1"):
        luxemburg_norms_over_balls(line4, fmat, Power(2.0))
    with pytest.raises(InputError, match=r"row 0 of fmat must be a length-4 array, got shape \(5,\)"):
        luxemburg_norms_over_balls(line4, [ONES + [1.0]] * 2, Power(2.0))


STACK_ENTRY_POINTS = {
    "hl_maximal": lambda sp, v: hl_maximal(sp, v),
    "orlicz_maximal": lambda sp, v: orlicz_maximal(sp, v, Power(2.0)),
}

BAD_STACKS = {
    "nan": ([ONES, ONES, [1.0, 1.0, math.nan, 1.0]], "row 2 of field contains NaN at index 2"),
    "ragged": ([ONES, [1.0, 1.0], ONES],
               r"must be an array of numbers \(setting an array element.*; "
               r"row 1 of field must be a length-4 array, got shape \(2,\)"),
    "width": ([ONES + [1.0]] * 2, r"row 0 of field must be a length-4 array, got shape \(5,\)"),
    "deep": ([[ONES, ONES], [ONES, [1.0, -1.0, 1.0, 1.0]]], "row 3 of field contains a negative value"),
}


@pytest.mark.parametrize("bad", BAD_STACKS)
@pytest.mark.parametrize("entry", STACK_ENTRY_POINTS)
def test_stacks_name_the_bad_row(line4, entry, bad):
    values, message = BAD_STACKS[bad]
    with pytest.raises(InputError, match=message):
        STACK_ENTRY_POINTS[entry](line4, values)


@pytest.mark.parametrize("entry", STACK_ENTRY_POINTS)
def test_a_stack_gives_one_maximal_function_per_row(line4, entry):
    rows = [ONES, [4.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0]]
    stacked = STACK_ENTRY_POINTS[entry](line4, rows)
    single = [STACK_ENTRY_POINTS[entry](line4, row) for row in rows]
    assert stacked.shape == (3, 4)
    assert stacked == pytest.approx(np.array(single), rel=1e-11)
