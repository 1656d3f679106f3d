import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_cloud
from shtlab.errors import InputError
from shtlab.maximal import (
    hl_maximal,
    orlicz_maximal,
    restricted_maximal,
    restricted_maximal_table,
)
from shtlab.orlicz import Power
from shtlab.space import Ball, ball_mask, ball_table, whole_space_ball


def oracle_maximal(space, f):
    """Brute-force M over a dense radius grid, independent of the ball table."""
    out = np.zeros(space.n)
    fm = f * space.mass
    for c in range(space.n):
        vals = sorted(set(space.dist[c]))
        radii = [v for v in vals if v > 0] + [max(vals) * 2 + 1] + [
            (a + b) / 2 for a, b in zip(vals, vals[1:])
        ]
        for r in radii:
            mask = space.dist[c] < r
            avg = fm[mask].sum() / space.mass[mask].sum()
            out[mask] = np.maximum(out[mask], avg)
    return out


def test_constant_field(line4):
    assert np.allclose(hl_maximal(line4, np.full(4, 2.5)), 2.5)


def test_line4_spike(line4):
    got = hl_maximal(line4, np.array([4.0, 0, 0, 0]))
    assert np.allclose(got, [4.0, 2.0, 4.0 / 3.0, 1.0])


def test_one_point(one_point):
    assert hl_maximal(one_point, np.array([3.7])) == pytest.approx(3.7)


def test_matches_oracle_on_random_spaces():
    rng = np.random.default_rng(3)
    for trial in range(10):
        sp = random_cloud(rng, int(rng.integers(2, 9)), dim=1 + trial % 2)
        f = 10.0 ** rng.uniform(-1, 1, sp.n)
        assert np.allclose(hl_maximal(sp, f), oracle_maximal(sp, f), rtol=1e-12)


def test_negative_field_rejected(line4):
    with pytest.raises(InputError, match="field contains a negative value at index 2"):
        hl_maximal(line4, np.array([1.0, 1.0, -1.0, 1.0]))


# ------------------------------------------------------------- restricted


def test_restricted_whole_ball_is_plain(line4):
    f = np.array([1.0, 3.0, 0.0, 2.0])
    whole = whole_space_ball(line4)
    assert np.array_equal(restricted_maximal(line4, f, whole), hl_maximal(line4, f))


def test_restricted_examples(line4):
    got = restricted_maximal(line4, np.array([4.0, 4.0, 0.0, 0.0]), Ball(0, 2.0))
    assert got[2] == pytest.approx(8.0 / 3.0)
    got = restricted_maximal(line4, np.ones(4), Ball(0, 1.0))
    assert np.allclose(got, [1.0, 0.5, 1.0 / 3.0, 0.25])


def test_restricted_dominated_by_plain(line4):
    rng = np.random.default_rng(9)
    f = rng.uniform(0, 3, 4)
    for ball in ball_table(line4).balls:
        assert np.all(restricted_maximal(line4, f, ball) <= hl_maximal(line4, f) + 1e-15)


def test_restricted_table_matches_per_ball():
    rng = np.random.default_rng(29)
    sp = random_cloud(rng, 7)
    f = 10.0 ** rng.uniform(-1, 1, 7)
    tbl = ball_table(sp)
    table = restricted_maximal_table(sp, f)
    for i, ball in enumerate(tbl.balls):
        assert np.allclose(table[i], restricted_maximal(sp, f, ball), rtol=1e-12)


# ------------------------------------------------------------- properties


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_monotone_and_sublinear(seed):
    rng = np.random.default_rng(seed)
    sp = random_cloud(rng, 6)
    f = rng.uniform(0, 4, 6)
    g = f + rng.uniform(0, 2, 6)
    mf, mg = hl_maximal(sp, f), hl_maximal(sp, g)
    assert np.all(mf <= mg + 1e-12)
    assert np.all(hl_maximal(sp, f + g) <= mf + mg + 1e-12)


def test_pointwise_lower_bounds(line4):
    rng = np.random.default_rng(15)
    f = rng.uniform(0, 4, 4)
    mf = hl_maximal(line4, f)
    # singletons are canonical member sets, so Mf >= f ...
    assert np.all(mf >= f - 1e-15)
    # ... and in every case Mf(x) >= the average over the smallest canonical ball
    tbl = ball_table(line4)
    for x in range(4):
        mask = ball_mask(line4, tbl.balls[int(np.argmax(tbl.centers == x))])
        small_avg = (f * line4.mass)[mask].sum() / line4.mass[mask].sum()
        assert mf[x] >= small_avg - 1e-15


# ------------------------------------------------------------- Orlicz


def test_orlicz_power_one_matches_plain(line4):
    f = np.array([2.0, 1.0, 0.0, 5.0])
    assert np.allclose(orlicz_maximal(line4, f, Power(1)), hl_maximal(line4, f), rtol=1e-9)


def test_orlicz_constant(line4):
    for q in (1.5, 2.0, 4.0):
        assert np.allclose(orlicz_maximal(line4, np.full(4, 1.7), Power(q)), 1.7, rtol=1e-9)


def test_orlicz_spike_at_origin(line4):
    got = orlicz_maximal(line4, np.array([2.0, 0, 0, 0]), Power(2))
    assert got[0] == pytest.approx(2.0, rel=1e-9)


def test_orlicz_qmean_identity():
    # M_Phi with Power(q) equals (M(f**q))**(1/q): a second oracle
    rng = np.random.default_rng(77)
    for trial in range(6):
        sp = random_cloud(rng, int(rng.integers(3, 9)))
        f = 10.0 ** rng.uniform(-1, 1, sp.n)
        for q in (1.5, 2.0, 3.0):
            direct = orlicz_maximal(sp, f, Power(q))
            viaq = hl_maximal(sp, f**q) ** (1.0 / q)
            assert np.allclose(direct, viaq, rtol=1e-9)
