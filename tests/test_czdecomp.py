import math

import numpy as np
import pytest

from conftest import random_cloud
from shtlab.czdecomp import (
    CZDecomposition,
    LevelEntry,
    LevelFamily,
    cz_decompose,
    multi_level_decompose,
    verify_cz_properties,
    verify_disjointing,
)
from shtlab.errors import InputError, PreconditionError
from shtlab.maximal import hl_maximal
from shtlab.space import (
    Ball,
    QuasiMetricSpace,
    SpaceProfile,
    ball_mask,
    ball_members,
    ball_table,
    build_space,
    dilate_ball,
    space_profile,
)
from shtlab.specio import parse_space, parse_weight
from shtlab.suite import default_manifest


def test_config_defaults(line4):
    prof = space_profile(line4)
    assert prof.theta == 5.0
    assert prof.eta == 7.0
    # smallest integer >= max(2*(4*theta*eta)**d_mu, (2*eta)**d_mu + 1)
    d = math.log2(3.0)
    assert prof.disjointing_base == 2 * 140.0**d
    assert prof.level_base == math.ceil(max(2 * 140.0**d, 14.0**d + 1))
    assert prof.level_base == 5042.0
    assert multi_level_decompose(line4, [8.0, 0, 0, 0]).a == prof.level_base


@pytest.mark.parametrize("a", [1.0, 0.5, math.nan, math.inf])
def test_multilevel_rejects_a_level_base_not_above_1(line4, a):
    with pytest.raises(InputError, match="level base a must be finite and exceed 1"):
        multi_level_decompose(line4, [8.0, 0, 0, 0], a, allow_small_a=True)


@pytest.mark.parametrize("d_mu", [700.0, math.inf])
def test_config_rejects_an_overflowing_level_base(d_mu):
    profile = SpaceProfile(kappa=1.0, c_mu=2.0**d_mu, d_mu=d_mu, engulf=3.0)
    for name in ("disjointing_base", "level_base"):
        with pytest.raises(InputError, match=f"overflows: doubling order d_mu = {d_mu:g}"):
            getattr(profile, name)


def test_level_base_monotone():
    def profile(d_mu):
        return SpaceProfile(kappa=1.0, c_mu=2.0**d_mu, d_mu=d_mu, engulf=3.0)

    assert profile(0.0).level_base == 2.0
    assert profile(1.0).level_base > profile(0.5).level_base


# ------------------------------------------------------------ single level


def test_line4_spike_decomposition(line4):
    f = np.array([8.0, 0.0, 0.0, 0.0])
    dec = cz_decompose(line4, f, 4.0)
    assert list(dec.omega) == [0]
    assert len(dec.selected) == 1
    assert list(ball_members(line4, ball_table(line4).ball(dec.selected[0]))) == [0]
    report = verify_cz_properties(line4, dec, f)
    assert report["violations"] == []


def test_vitali_pass_keeps_the_larger_of_two_meeting_candidates(line4):
    # Omega is the whole line.  Point 0's candidate is B(0, 2) = {0, 1}
    # (average 5/2), the others' is B(3, 3) = {1, 2, 3} (average 7/3); they
    # meet, so the radius-descending pass keeps only the larger.
    dec = cz_decompose(line4, [1.0, 4.0, 0.0, 3.0], 2.0)
    assert list(dec.omega) == [0, 1, 2, 3]
    assert [ball_table(line4).ball(r) for r in dec.selected] == [Ball(3, 3.0)]


def test_constant_field_empty_decomposition(line4):
    f = np.full(4, 2.0)
    dec = cz_decompose(line4, f, 2.0)
    assert dec.is_empty and dec.omega.size == 0
    assert verify_cz_properties(line4, dec, f)["violations"] == []


def test_level_below_average_rejected(line4):
    with pytest.raises(PreconditionError, match="level below base average"):
        cz_decompose(line4, np.array([8.0, 0, 0, 0]), 0.0)


def test_generated_levels_never_below_base_average():
    # for a constant f the rounded max Mf can sit an ulp below the base
    # average; cz-069 and cz-313 of this manifest are two such items
    for item in default_manifest(20260810, 0, 400, 0)["cz"]:
        sp = parse_space(item["space"])
        f = parse_weight(item["f"], sp)
        dec = cz_decompose(sp, f, item["lam"])
        if item["name"] in ("cz-069", "cz-313"):
            assert dec.is_empty
            report = verify_cz_properties(sp, dec, f)
            assert report["violations"] == []


def test_decomposition_deterministic(line4):
    f = np.array([5.0, 1.0, 7.0, 2.0])
    a = cz_decompose(line4, f, 4.0)
    b = cz_decompose(line4, f, 4.0)
    assert np.array_equal(a.selected, b.selected)
    assert np.array_equal(a.omega, b.omega)


def test_properties_hold_on_random_instances():
    rng = np.random.default_rng(99)
    for trial in range(25):
        sp = random_cloud(rng, int(rng.integers(3, 12)), dim=1 + trial % 2)
        f = np.zeros(sp.n)
        k = int(rng.integers(1, max(2, sp.n // 2)))
        f[rng.choice(sp.n, size=k, replace=False)] = 10.0 ** rng.uniform(0, 2, k)
        mf = hl_maximal(sp, f)
        avg = float((f * sp.mass).sum() / sp.mass.sum())
        lam = avg + rng.uniform(0, 0.95) * (mf.max() - avg)
        dec = cz_decompose(sp, f, lam)
        report = verify_cz_properties(sp, dec, f)
        assert report["violations"] == []


def test_coverage_sandwich_measure_bound():
    # mu(Omega) <= sum mu(theta*B_i) <= (2*theta)**d_mu * sum mu(B_i)
    rng = np.random.default_rng(55)
    for _ in range(10):
        sp = random_cloud(rng, 8)
        prof = space_profile(sp)
        f = np.zeros(8)
        f[rng.choice(8, 2, replace=False)] = [6.0, 9.0]
        avg = float((f * sp.mass).sum() / sp.mass.sum())
        lam = avg * 1.5
        dec = cz_decompose(sp, f, lam)
        if dec.is_empty:
            continue
        mu_omega = sp.mass[dec.omega].sum()
        balls = [ball_table(sp).ball(r) for r in dec.selected]
        dil = sum(sp.mass[sp.dist[b.center] < prof.theta * b.radius].sum() for b in balls)
        plain = sum(sp.mass[ball_mask(sp, b)].sum() for b in balls)
        assert mu_omega <= dil * (1 + 1e-12)
        assert dil <= (2 * prof.theta) ** prof.d_mu * plain * (1 + 1e-12)


# ------------------------------------------------ hand-built faulty families


@pytest.fixture
def line8():
    return build_space({"type": "grid", "shape": [8]})


def rows_of(space, balls):
    """The ball-table rows of canonical balls, given as (center, radius) pairs."""
    tbl = ball_table(space)
    rows = [np.flatnonzero((tbl.centers == b.center) & (tbl.radii == b.radius)) for b in balls]
    assert all(r.size == 1 for r in rows), balls
    return np.array([int(r[0]) for r in rows], dtype=int)


def check_hand_built(space, f, level, omega, balls):
    """The checker's report on the given balls, whatever the selection would pick."""
    dec = CZDecomposition(level=level, omega=np.array(omega, dtype=int), selected=rows_of(space, balls))
    return verify_cz_properties(space, dec, np.array(f, dtype=float))


def test_overlapping_balls_are_named_pairwise(line8):
    balls = [Ball(0, 2.0), Ball(1, 2.0), Ball(2, 2.0)]  # {0,1}, {0,1,2}, {1,2,3}
    report = check_hand_built(line8, [9, 9, 9, 9, 0, 0, 0, 0], 5.0, [0, 1, 2, 3], balls)
    assert report["violations"] == [
        {"kind": "overlap", "balls": (balls[0], balls[1])},
        {"kind": "overlap", "balls": (balls[0], balls[2])},
        {"kind": "overlap", "balls": (balls[1], balls[2])},
    ]


def test_selected_points_outside_omega_are_named(line8):
    balls = [Ball(0, 2.0), Ball(4, 2.0)]  # {0,1}, {3,4,5}
    report = check_hand_built(line8, [9, 9, 0, 9, 9, 9, 0, 0], 6.0, [0, 4], balls)
    assert report["violations"] == [
        {"kind": "selected_outside_omega", "ball": balls[0], "point": 1},
        {"kind": "selected_outside_omega", "ball": balls[1], "point": 3},
        {"kind": "selected_outside_omega", "ball": balls[1], "point": 5},
    ]


def test_points_beyond_the_theta_dilates_are_uncovered(line8):
    # theta = 5 on the line, so theta * B(0, 1) = B(0, 5) stops before 5
    report = check_hand_built(line8, [9, 0, 0, 0, 0, 0, 0, 0], 4.0, [0, 5, 7], [Ball(0, 1.0)])
    assert report["violations"] == [
        {"kind": "uncovered_point", "point": 5},
        {"kind": "uncovered_point", "point": 7},
    ]


def test_a_ball_at_or_below_the_level_is_named(line8):
    report = check_hand_built(line8, [9, 0, 1, 0, 0, 0, 0, 0], 4.0, [0, 2], [Ball(0, 1.0), Ball(2, 1.0)])
    assert report["violations"] == [{"kind": "low_average", "ball": Ball(2, 1.0), "average": 1.0}]
    assert report["undilated_exceedances"] == 0


def test_enclosing_balls_whose_eta_dilate_exceeds_the_level(line8):
    # Every canonical ball containing B_i = B(0, 1) with radius >= eta = 7 has
    # the whole line as its eta-dilate, whose average (2 + 30) / 8 exceeds 1.
    report = check_hand_built(line8, [2, 0, 0, 0, 0, 0, 0, 30], 1.0, [0], [Ball(0, 1.0)])
    enclosing = [(0, 7.0), (0, 14.0), (1, 12.0), (2, 10.0), (3, 8.0), (4, 8.0), (5, 10.0),
                 (6, 12.0), (7, 14.0)]
    assert report["violations"] == [
        {"kind": "window_violated", "ball": Ball(0, 1.0), "enclosing": Ball(c, r), "average": 4.0}
        for c, r in enclosing
    ]
    # all but B(0, 7) = {0, ..., 6}, which misses the spike, exceed it themselves
    assert report["undilated_exceedances"] == 8


def loop_oracle(space, dec, f):
    """The checker, ball by ball and pair by pair, from Ball objects."""
    prof = space_profile(space)
    tbl = ball_table(space)
    slack = 1e-9 * abs(dec.level)
    omega_mask = np.zeros(space.n, dtype=bool)
    omega_mask[dec.omega] = True
    selected = [tbl.ball(r) for r in dec.selected]
    masks = [ball_mask(space, b) for b in selected]
    violations = []
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] & masks[j]).any():
                violations.append({"kind": "overlap", "balls": (selected[i], selected[j])})
    covered = np.zeros(space.n, dtype=bool)
    for ball, mask in zip(selected, masks):
        for y in np.nonzero(mask & ~omega_mask)[0]:
            violations.append({"kind": "selected_outside_omega", "ball": ball, "point": int(y)})
        covered |= ball_mask(space, dilate_ball(ball, prof.theta))
    for x in dec.omega[~covered[dec.omega]]:
        violations.append({"kind": "uncovered_point", "point": int(x)})
    fm = f * space.mass
    for ball, mask in zip(selected, masks):
        avg = float(fm[mask].sum() / space.mass[mask].sum())
        if not avg > dec.level - slack:
            violations.append({"kind": "low_average", "ball": ball, "average": avg})
    undilated = 0
    for ball, mask in zip(selected, masks):
        for r in range(tbl.m):
            outer = ball_mask(space, dilate_ball(tbl.ball(r), prof.eta))
            inner = ball_mask(space, tbl.ball(r))
            if (mask & ~inner).any() or tbl.radii[r] < prof.eta * ball.radius:
                continue
            avg_out = float(fm[outer].sum() / space.mass[outer].sum())
            if avg_out > dec.level + slack:
                violations.append(
                    {"kind": "window_violated", "ball": ball, "enclosing": tbl.ball(r), "average": avg_out}
                )
            undilated += float(fm[inner].sum() / tbl.mu[r]) > dec.level
    return {"violations": violations, "undilated_exceedances": undilated}


def test_checker_matches_a_loop_oracle_on_random_selections():
    rng = np.random.default_rng(2026)
    kinds = set()
    for trial in range(40):
        sp = random_cloud(rng, int(rng.integers(3, 10)), dim=1 + trial % 2)
        tbl = ball_table(sp)
        rows = rng.choice(tbl.m, size=int(rng.integers(0, 6)), replace=False)
        dec = CZDecomposition(
            level=float(rng.uniform(0.5, 2.5)),
            omega=np.flatnonzero(rng.random(sp.n) < 0.5),
            selected=rows,
        )
        f = rng.uniform(0.0, 3.0, sp.n)
        report = verify_cz_properties(sp, dec, f)
        assert report == loop_oracle(sp, dec, f)
        kinds |= {v["kind"] for v in report["violations"]}
    assert kinds == {"overlap", "selected_outside_omega", "uncovered_point", "low_average",
                     "window_violated"}


# ------------------------------------------------------------ multi level


def test_line4_multilevel_with_small_base(line4):
    f = np.array([8.0, 0.0, 0.0, 0.0])
    fam = multi_level_decompose(line4, f, 4.0, allow_small_a=True)
    assert fam.a == 4.0
    assert fam.k0 == 1  # 4**0 < avg(=2) <= 4**1
    assert len(fam.entries) == 1
    entry = fam.entries[0]
    assert entry.level == 4.0
    assert list(entry.omega) == [0]
    assert [list(ball_members(line4, ball_table(line4).ball(r))) for r in entry.balls] == [[0]]
    assert [list(e) for e in entry.pruned] == [[0]]
    assert verify_disjointing(line4, fam)["violations"] == []


def test_small_base_rejected_without_override(line4):
    with pytest.raises(InputError, match="2\\*\\(4\\*theta\\*eta\\)"):
        multi_level_decompose(line4, np.ones(4), 4.0)


def test_constant_field_gives_empty_family(line4):
    fam = multi_level_decompose(line4, np.full(4, 3.0))
    assert fam.entries == []
    assert 1 < 3.0 / fam.a ** (fam.k0 - 1) and 3.0 <= fam.a**fam.k0


def test_zero_field_rejected(line4):
    with pytest.raises(PreconditionError, match="vanishes"):
        multi_level_decompose(line4, np.zeros(4))


def level_entry(space, k, omega, balls, pruned):
    return LevelEntry(
        k=k,
        level=4.0**k,
        omega=np.array(omega, dtype=int),
        balls=rows_of(space, balls),
        pruned=[np.array(e, dtype=int) for e in pruned],
    )


def hand_built_family(space, *entries):
    # the default a meets the half-mass requirement
    fam = LevelFamily(a=space_profile(space).level_base, k0=entries[0].k, entries=list(entries))
    return verify_disjointing(space, fam), fam


def test_a_ball_mostly_inside_the_next_level_set_breaks_the_overlap_bound(line8):
    # the factor (4*theta*eta)**d_mu / a is about 1/2 on the line, and
    # Omega_{k+1} holds all of B(0, 2) = {0, 1}
    report, fam = hand_built_family(
        line8,
        level_entry(line8, 1, [0, 1, 2], [Ball(0, 2.0), Ball(2, 1.0)], [[0, 1], [2]]),
        level_entry(line8, 2, [0, 1], [], []),
    )
    prof = space_profile(line8)
    factor = (4.0 * prof.theta * prof.eta) ** prof.d_mu / fam.a
    assert report["violations"] == [
        {"kind": "overlap_bound", "k": 1, "ball": Ball(0, 2.0), "mu_overlap": 2.0, "bound": factor * 2.0}
    ]


def test_a_pruned_set_below_half_the_ball_is_named(line8):
    report, _ = hand_built_family(
        line8, level_entry(line8, 1, [0, 1, 2, 5], [Ball(0, 3.0), Ball(5, 1.0)], [[0], [5]])
    )
    assert report["violations"] == [
        {"kind": "half_mass", "k": 1, "ball": Ball(0, 3.0), "mu_ball": 3.0, "mu_pruned": 1.0}
    ]


def test_pruned_sets_meeting_across_levels_are_named(line8):
    report, _ = hand_built_family(
        line8,
        level_entry(line8, 1, [0, 1, 4], [Ball(0, 2.0), Ball(4, 1.0)], [[0, 1], [4]]),
        level_entry(line8, 2, [6], [Ball(6, 2.0)], [[1, 5, 6, 7]]),
    )
    assert report["violations"] == [{"kind": "pruned_overlap", "k": 2, "ball": Ball(6, 2.0)}]


def cascade_space(n=22, ratio=2.0, growth=4.0):
    pts = ratio ** np.arange(n)
    dist = np.abs(pts[:, None] - pts[None, :])
    return QuasiMetricSpace(dist, growth ** np.arange(n))


def test_cascade_produces_multiple_levels():
    sp = cascade_space()
    f = np.zeros(sp.n)
    f[0] = 1.0
    fam = multi_level_decompose(sp, f)
    assert len(fam.entries) >= 2
    # consecutive levels, each nonempty, up to the first empty level set
    assert [e.k for e in fam.entries] == list(range(fam.k0, fam.k0 + len(fam.entries)))
    assert all(e.omega.size for e in fam.entries)
    assert hl_maximal(sp, f).max() <= fam.a ** (fam.entries[-1].k + 1)
    report = verify_disjointing(sp, fam)
    assert report["violations"] == []
    # starting bracket
    avg = float((f * sp.mass).sum() / sp.mass.sum())
    assert fam.a ** (fam.k0 - 1) < avg <= fam.a**fam.k0
    # pruned sets pairwise disjoint across all levels (exact)
    seen = set()
    for entry in fam.entries:
        for pruned in entry.pruned:
            for y in pruned:
                assert int(y) not in seen
                seen.add(int(y))


def test_multilevel_respects_omega_nesting():
    sp = cascade_space(n=18, ratio=2.5, growth=3.0)
    f = np.zeros(sp.n)
    f[[0, 2]] = [5.0, 1.0]
    fam = multi_level_decompose(sp, f)
    mf = hl_maximal(sp, f)
    for entry in fam.entries:
        omega = set(int(x) for x in entry.omega)
        assert omega == {x for x in range(sp.n) if mf[x] > entry.level}
        for r in entry.balls:
            assert set(int(y) for y in ball_members(sp, ball_table(sp).ball(r))) <= omega
