import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from conftest import open_ball, random_cloud, table_balls
from shtlab.errors import InputError
from shtlab.space import (
    Ball,
    QuasiMetricSpace,
    SpaceProfile,
    ball_table,
    build_space,
    check_dilation_bounds,
    check_engulfing,
    space_profile,
)
from shtlab.suite import default_manifest


# ---------------------------------------------------------------- oracles


def oracle_kappa(space):
    """Exhaustive maximization of d(x,y)/(d(x,z)+d(z,y)) over all triples."""
    n, d = space.n, space.dist
    best = 1.0
    for x, y, z in itertools.product(range(n), repeat=3):
        if x == y:
            continue
        best = max(best, d[x, y] / (d[x, z] + d[z, y]))
    return best


def dense_radii(space, x):
    """Distance values, their halves and midpoints: every breakpoint of r."""
    vals = sorted(set(space.dist[x]))
    grid = set()
    for v in vals:
        if v > 0:
            grid.update([v, v / 2, 1.5 * v, 3 * v])
    for a, b in zip(vals, vals[1:]):
        grid.add((a + b) / 2)
    return sorted(grid)


def oracle_doubling(space):
    """Doubling constant maximized over a dense grid of radii."""
    best = 1.0
    for x in range(space.n):
        for r in dense_radii(space, x):
            inner = space.mass[space.dist[x] < r].sum()
            outer = space.mass[space.dist[x] < 2 * r].sum()
            best = max(best, outer / inner)
    return best


# ---------------------------------------------------------------- building


def test_line4_generator(line4):
    expect = np.abs(np.arange(4)[:, None] - np.arange(4)[None, :]).astype(float)
    assert np.array_equal(line4.dist, expect)
    assert np.array_equal(line4.mass, np.ones(4))


def test_explicit_two_point_valid(two_point):
    assert two_point.n == 2
    assert two_point.total_mass == 2.0


def test_nonpositive_mass_rejected():
    with pytest.raises(InputError, match="nonpositive mass at index 1"):
        build_space({"type": "explicit", "dist": [[0, 1], [1, 0]], "mass": [1, 0]})


@pytest.mark.parametrize(
    "dist,mass,msg",
    [
        ([[0, 1], [2, 0]], [1, 1], "asymmetric"),
        ([[0, -1], [-1, 0]], [1, 1], "negative distance"),
        ([[0, 0], [0, 0]], [1, 1], "zero off-diagonal"),
        ([[0, 1], [1, 0]], [1, 1, 1], "dimension mismatch"),
        ([[0, float("nan")], [float("nan"), 0]], [1, 1], "non-finite"),
    ],
)
def test_invalid_matrices_rejected(dist, mass, msg):
    with pytest.raises(InputError, match=msg):
        QuasiMetricSpace(dist, mass)


def test_empty_space_rejected():
    with pytest.raises(InputError, match="at least one point"):
        QuasiMetricSpace(np.zeros((0, 0)), np.zeros(0))


def test_grid_2d_l2():
    sp = build_space({"type": "grid", "shape": [2, 2], "metric": "l2"})
    assert sp.n == 4
    assert sp.dist[0, 3] == pytest.approx(np.sqrt(2))


def test_grid_points_are_row_major():
    sp = build_space({"type": "grid", "shape": [2, 3], "metric": "l1"})
    ij = np.array([(k // 3, k % 3) for k in range(6)])  # point k sits at row k // 3
    assert np.array_equal(sp.dist, np.abs(ij[:, None, :] - ij[None, :, :]).sum(axis=2))


# ---------------------------------------------------------------- profiling


def test_line4_profile(line4):
    prof = space_profile(line4)
    assert prof.kappa == oracle_kappa(line4) == 1.0
    assert prof.c_mu == oracle_doubling(line4) == 3.0
    assert prof.d_mu == np.log2(3.0)
    assert prof.engulf == 3.0


def test_two_point_doubling(two_point):
    prof = space_profile(two_point)
    assert prof.c_mu == oracle_doubling(two_point) == 2.0


def test_one_point_profile(one_point):
    prof = space_profile(one_point)
    assert prof.kappa == 1.0
    assert prof.c_mu == 1.0
    assert prof.d_mu == 0.0


def test_profile_matches_oracles_on_random_spaces():
    rng = np.random.default_rng(11)
    for trial in range(8):
        sp = random_cloud(rng, int(rng.integers(3, 8)), dim=1 + trial % 2)
        prof = space_profile(sp)
        assert prof.kappa == pytest.approx(oracle_kappa(sp), rel=1e-12)
        assert prof.c_mu == pytest.approx(oracle_doubling(sp), rel=1e-12)


def per_center_c_mu(space):
    """The doubling constant as one bool-matrix @ mass product per center."""
    c_mu = 1.0
    for x in range(space.n):
        row = space.dist[x]
        pos = np.unique(row[row > 0])
        radii = np.append(pos, 2.0 * pos[-1]) if pos.size else np.array([1.0])
        inner = (row[None, :] < radii[:, None]) @ space.mass
        outer = (row[None, :] < 2.0 * radii[:, None]) @ space.mass
        c_mu = max(c_mu, float(np.max(outer / inner)))
    return c_mu


def test_space_with_cached_table_is_freed_without_the_collector():
    # no reference cycle: a space with its table and profile goes as soon as
    # the last reference does, not at the collector's next full pass
    gc.disable()
    try:
        sp = build_space({"type": "grid", "shape": [6], "metric": "l1", "mass": "uniform"})
        ball_table(sp)
        space_profile(sp)
        ref = weakref.ref(sp)
        del sp
        assert ref() is None
    finally:
        gc.enable()


def test_doubling_constant_matches_per_center_products():
    # Bit for bit: the level base a = ceil(...) of a cz item reads c_mu, so an
    # ulp here can change a report.
    for item in default_manifest(20260810, 0, 400, 0)["cz"]:
        sp = build_space(item["space"])
        assert space_profile(sp).c_mu == per_center_c_mu(sp), item["name"]


def dense_kappa(space):
    """kappa from the full (x, y, z) array of ratios, diagonal masked out."""
    d, n = space.dist, space.n
    if n < 2:
        return 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d[:, :, None] / (d[:, None, :] + d.T[None, :, :])
    ratio[np.arange(n), np.arange(n)] = 0.0
    return max(1.0, float(np.max(ratio)))


def test_kappa_equals_dense_formula(monkeypatch):
    # Bit for bit, as c_mu: theta, eta and the level base a all read kappa.
    snowflake = np.abs(np.arange(9)[:, None] - np.arange(9)[None, :]).astype(float) ** 1.7
    spaces = [build_space(item["space"]) for item in default_manifest(20260810, 0, 400, 0)["cz"]]
    spaces.append(QuasiMetricSpace(snowflake, np.ones(9)))
    for sp in spaces:
        assert space_profile(sp).kappa == dense_kappa(sp)
    monkeypatch.setattr("shtlab.space.WORKSPACE_ELEMENTS", 2 * 9 * 9)  # chunks of 2 rows
    # a fresh space: the profile cached on the last one would answer unchunked
    sp = QuasiMetricSpace(snowflake, np.ones(9))
    assert space_profile(sp).kappa == dense_kappa(sp) == pytest.approx(2**0.7, rel=1e-12)


def test_profile_is_cached_on_the_space(line4):
    assert space_profile(line4) is space_profile(line4)


def test_kappa_certifies_quasitriangle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        sp = random_cloud(rng, 7, dim=2)
        k = space_profile(sp).kappa
        d = sp.dist
        for x, y, z in itertools.product(range(7), repeat=3):
            if x != y:
                assert d[x, y] <= k * (d[x, z] + d[z, y]) * (1 + 1e-12)


def test_snowflaked_line_has_kappa_above_one():
    # d(x,y) = |x-y|**1.5 relaxes the triangle inequality by 2**0.5
    base = np.abs(np.arange(5)[:, None] - np.arange(5)[None, :]).astype(float)
    sp = QuasiMetricSpace(base**1.5, np.ones(5))
    prof = space_profile(sp)
    assert prof.kappa == pytest.approx(2**0.5, rel=1e-12)
    assert check_engulfing(sp, prof) == []
    assert check_dilation_bounds(sp, prof, [2.0, prof.engulf]) == []


# ---------------------------------------------------------------- balls


def row_members(space, ball, lam=1.0):
    """Members of the table row of ``ball``, dilated by ``lam``."""
    return list(np.flatnonzero(ball_table(space).dilated(lam)[table_balls(space).index(ball)]))


def test_ball_members_examples(line4):
    assert row_members(line4, Ball(1, 2.0)) == [0, 1, 2]
    assert row_members(line4, Ball(0, 1.0)) == [0]
    assert list(np.flatnonzero(open_ball(line4, 0, 5.0))) == [0, 1, 2, 3]


def test_enumerate_balls_counts(line4, two_point, one_point):
    # One ball per distinct achievable member set.  On the 4-point line the
    # middle centers realize only sets of 1, 3 and 4 points, so 4+3+3+4 = 14.
    assert ball_table(line4).m == 14
    assert table_balls(one_point) == [Ball(0, 1.0)]
    balls2 = table_balls(two_point)
    assert len(balls2) == 4
    sets = [tuple(np.flatnonzero(open_ball(two_point, b.center, b.radius))) for b in balls2]
    assert sets == [(0,), (0, 1), (1,), (0, 1)]


def test_enumeration_is_deterministic_and_sorted(line4):
    balls = table_balls(line4)
    assert balls == table_balls(build_space({"type": "grid", "shape": [4]}))
    keys = [(b.center, b.radius) for b in balls]
    assert keys == sorted(keys)
    assert all(type(b.center) is int and type(b.radius) is float for b in balls)


def test_enumeration_covers_all_member_sets():
    rng = np.random.default_rng(23)
    for trial in range(10):
        sp = random_cloud(rng, int(rng.integers(2, 9)), dim=1 + trial % 2)
        tbl = ball_table(sp)
        for x in range(sp.n):
            rows = np.nonzero(tbl.centers == x)[0]
            canon = {tuple(np.nonzero(tbl.member[b])[0]) for b in rows}
            dense = {tuple(np.nonzero(sp.dist[x] < r)[0]) for r in dense_radii(sp, x)}
            assert dense <= canon
            assert len(canon) == len(rows)  # no duplicates


def test_dilate_ball(line4):
    assert row_members(line4, Ball(1, 2.0), 1.0) == [0, 1, 2]
    assert row_members(line4, Ball(0, 1.0), 5.0) == [0, 1, 2, 3]


def masked_point_max(tbl, per_ball):
    """The max over the balls containing each point, from the full masked
    (rows, m, n) array: the form that ``BallTable.point_max`` must equal."""
    rows = np.asarray(per_ball, dtype=float).reshape(-1, tbl.m)
    masked = np.where(tbl.member, rows[:, :, None], -np.inf)
    return masked.max(axis=1).reshape(np.shape(per_ball)[:-1] + (tbl.dist.shape[0],))


def tied_cloud(rng, n):
    """n distinct points of a 4x4 integer lattice under l1: many tied distances."""
    pts = np.argwhere(np.ones((4, 4)))[rng.choice(16, size=n, replace=False)]
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
    return QuasiMetricSpace(dist, 10.0 ** rng.uniform(-1.5, 1.5, n))


def test_point_max_equals_the_masked_form(one_point, two_point):
    rng = np.random.default_rng(53)
    spaces = [one_point, two_point]
    spaces += [build_space({"type": "grid", "shape": shape, "metric": metric})
               for shape, metric in [([5], "l1"), ([9], "l1"), ([3, 4], "l1"),
                                     ([4, 4], "l2"), ([3, 3], "linf")]]
    spaces += [tied_cloud(rng, int(rng.integers(3, 12))) for _ in range(4)]
    spaces += [random_cloud(rng, int(rng.integers(2, 9)), dim=2) for _ in range(2)]
    for sp in spaces:
        tbl = ball_table(sp)
        stack = 10.0 ** rng.uniform(-1, 1, size=(10, tbl.m))
        stack[:, rng.integers(tbl.m)] = stack.max()  # a tie between balls
        got = tbl.point_max(stack)
        assert got.shape == (10, sp.n) and got.flags.c_contiguous
        assert np.array_equal(got, masked_point_max(tbl, stack))
        deep = stack.reshape(2, 5, tbl.m)
        assert np.array_equal(tbl.point_max(deep), masked_point_max(tbl, deep))
        assert np.array_equal(tbl.point_max(stack[3]), masked_point_max(tbl, stack[3]))


def test_point_max_in_chunks_equals_the_masked_form(monkeypatch, two_point):
    # budgets of 1, 3 and 4 rows put chunk boundaries all through a 10-row stack
    rng = np.random.default_rng(67)
    spaces = [two_point, build_space({"type": "grid", "shape": [7]}), tied_cloud(rng, 9),
              build_space({"type": "grid", "shape": [3, 3], "metric": "l2"})]
    for sp in spaces:
        tbl = ball_table(sp)
        per_row = (np.diff(tbl.starts).max() + sp.n) * sp.n  # running maxima and read
        stack = 10.0 ** rng.uniform(-1, 1, size=(10, tbl.m))
        want = masked_point_max(tbl, stack)
        for rows in (1, 3, 4):
            monkeypatch.setattr("shtlab.space.WORKSPACE_ELEMENTS", rows * per_row)
            assert np.array_equal(tbl.point_max(stack), want)
            assert np.array_equal(tbl.point_max(stack.reshape(2, 5, tbl.m)), want.reshape(2, 5, sp.n))
            assert np.array_equal(tbl.point_max(stack[3]), want[3])


# ---------------------------------------------------------------- checks


def test_engulfing_clean(line4, two_point, one_point):
    for sp in (line4, two_point, one_point):
        assert check_engulfing(sp, space_profile(sp)) == []


def test_engulfing_clean_on_random_spaces():
    rng = np.random.default_rng(31)
    for trial in range(6):
        sp = random_cloud(rng, int(rng.integers(3, 10)), dim=1 + trial % 2)
        assert check_engulfing(sp, space_profile(sp)) == []


def test_engulfing_violations_match_brute_force(line4):
    # engulf = 1 is too small on the line: a neighbour's ball escapes B_2
    prof = SpaceProfile(kappa=1.0, c_mu=3.0, d_mu=math.log2(3.0), engulf=1.0)
    balls = table_balls(line4)
    expected = []
    for b2 in balls:
        target = open_ball(line4, b2.center, b2.radius * prof.engulf)
        for b1 in balls:
            m1 = open_ball(line4, b1.center, b1.radius)
            meets = (m1 & open_ball(line4, b2.center, b2.radius)).any()
            if meets and b1.radius <= b2.radius and (m1 & ~target).any():
                expected.append((b1, b2))
    got = check_engulfing(line4, prof)
    assert len(got) == 14
    assert got == expected


def dense_engulfing(space, profile):
    """check_engulfing's pair test as one (m, m) product."""
    tbl = ball_table(space)
    member = tbl.member.astype(float)
    outside = (~tbl.dilated(profile.engulf)).astype(float)
    bad = ((member @ member.T) > 0) & ((member @ outside.T) > 0)
    bad &= tbl.radii[:, None] <= tbl.radii[None, :]
    return [(tbl.ball(i), tbl.ball(j)) for j, i in np.argwhere(bad.T)]


def test_engulfing_in_row_blocks_equals_one_product(monkeypatch, line4):
    rng = np.random.default_rng(41)
    cases = [(line4, SpaceProfile(kappa=1.0, c_mu=3.0, d_mu=math.log2(3.0), engulf=1.0))]
    for trial in range(6):
        sp = random_cloud(rng, int(rng.integers(3, 10)), dim=1 + trial % 2)
        prof = space_profile(sp)
        cases += [(sp, prof), (sp, dataclasses.replace(prof, engulf=1.0))]
    for sp, prof in cases:
        expected = dense_engulfing(sp, prof)
        monkeypatch.setattr("shtlab.space.WORKSPACE_ELEMENTS", 2 * ball_table(sp).m)  # 2-row blocks
        assert check_engulfing(sp, prof) == expected
        monkeypatch.undo()
    assert len(dense_engulfing(*cases[0])) == 14


def test_dilation_bounds_hold():
    rng = np.random.default_rng(37)
    for trial in range(6):
        sp = random_cloud(rng, int(rng.integers(2, 10)), dim=1 + trial % 2)
        prof = space_profile(sp)
        kappa = prof.kappa
        theta = 4 * kappa**2 + kappa
        eta = kappa**2 * (4 * kappa + 3)
        assert check_dilation_bounds(sp, prof, [2.0, prof.engulf, theta, eta]) == []
