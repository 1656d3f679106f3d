"""Every public entry point that takes a vector on a space validates it through
``shtlab.space.as_field``: a bad entry or length is an InputError that says
where the fault is."""
import math

import pytest

from shtlab.czdecomp import cz_decompose
from shtlab.errors import InputError
from shtlab.maximal import hl_maximal, orlicz_maximal, restricted_maximal_table
from shtlab.orlicz import Power, luxemburg_norm
from shtlab.space import Ball, whole_space_ball
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
    "luxemburg_norm": lambda sp, v: luxemburg_norm(sp, v, Ball(0, 2.0), Power(2.0)),
    "cz_decompose": lambda sp, v: cz_decompose(sp, whole_space_ball(sp), v, 10.0),
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
