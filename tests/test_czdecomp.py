import math

import numpy as np
import pytest

from conftest import random_cloud
from shtlab.czdecomp import (
    cz_config,
    cz_decompose,
    multi_level_decompose,
    required_level_base,
    verify_cz_properties,
    verify_disjointing,
)
from shtlab.errors import InputError, PreconditionError
from shtlab.maximal import hl_maximal
from shtlab.space import QuasiMetricSpace, ball_mask, space_profile, whole_space_ball
from shtlab.specio import parse_space, parse_weight
from shtlab.suite import default_manifest


def line4_config(line4, **kw):
    return cz_config(space_profile(line4), **kw)


def test_config_defaults(line4):
    cfg = line4_config(line4)
    assert cfg.theta == 5.0
    assert cfg.eta == 7.0
    # smallest integer >= max(2*(4*theta*eta)**d_mu, (2*eta)**d_mu + 1)
    d = math.log2(3.0)
    assert cfg.a == math.ceil(max(2 * 140.0**d, 14.0**d + 1))
    assert cfg.a == 5042.0


def test_config_rejects_bad_overrides(line4):
    with pytest.raises(InputError):
        line4_config(line4, eta=1.0)
    with pytest.raises(InputError):
        line4_config(line4, a=1.0)


def test_required_level_base_monotone():
    assert required_level_base(5.0, 7.0, 0.0) == 2.0
    assert required_level_base(5.0, 7.0, 1.0) > required_level_base(5.0, 7.0, 0.5)


# ------------------------------------------------------------ single level


def test_line4_spike_decomposition(line4):
    cfg = line4_config(line4)
    f = np.array([8.0, 0.0, 0.0, 0.0])
    dec = cz_decompose(line4, whole_space_ball(line4), f, 4.0)
    assert list(dec.omega) == [0]
    assert len(dec.selected) == 1
    assert list(dec.selected_members[0]) == [0]
    report = verify_cz_properties(line4, dec, f, cfg)
    assert report["violations"] == []


def test_constant_field_empty_decomposition(line4):
    cfg = line4_config(line4)
    f = np.full(4, 2.0)
    dec = cz_decompose(line4, whole_space_ball(line4), f, 2.0)
    assert dec.is_empty and dec.omega.size == 0
    assert verify_cz_properties(line4, dec, f, cfg)["violations"] == []


def test_level_below_average_rejected(line4):
    with pytest.raises(PreconditionError, match="level below base average"):
        cz_decompose(line4, whole_space_ball(line4), np.array([8.0, 0, 0, 0]), 0.0)


def test_generated_levels_never_below_base_average():
    # for a constant f the rounded max Mf can sit an ulp below the base
    # average; cz-069 and cz-313 of this manifest are two such items
    for item in default_manifest(20260810, 0, 400, 0)["cz"]:
        sp = parse_space(item["space"])
        f = parse_weight(item["f"], sp)
        dec = cz_decompose(sp, whole_space_ball(sp), f, item["lam"])
        if item["name"] in ("cz-069", "cz-313"):
            assert dec.is_empty
            report = verify_cz_properties(sp, dec, f, cz_config(space_profile(sp)))
            assert report["violations"] == []


def test_decomposition_deterministic(line4):
    f = np.array([5.0, 1.0, 7.0, 2.0])
    a = cz_decompose(line4, whole_space_ball(line4), f, 4.0)
    b = cz_decompose(line4, whole_space_ball(line4), f, 4.0)
    assert a.selected == b.selected
    assert np.array_equal(a.omega, b.omega)


def test_properties_hold_on_random_instances():
    rng = np.random.default_rng(99)
    for trial in range(25):
        sp = random_cloud(rng, int(rng.integers(3, 12)), dim=1 + trial % 2)
        prof = space_profile(sp)
        cfg = cz_config(prof)
        f = np.zeros(sp.n)
        k = int(rng.integers(1, max(2, sp.n // 2)))
        f[rng.choice(sp.n, size=k, replace=False)] = 10.0 ** rng.uniform(0, 2, k)
        mf = hl_maximal(sp, f)
        avg = float((f * sp.mass).sum() / sp.mass.sum())
        lam = avg + rng.uniform(0, 0.95) * (mf.max() - avg)
        dec = cz_decompose(sp, whole_space_ball(sp), f, lam)
        report = verify_cz_properties(sp, dec, f, cfg)
        assert report["violations"] == []


def test_coverage_sandwich_measure_bound():
    # mu(Omega) <= sum mu(theta*B_i) <= (2*theta)**d_mu * sum mu(B_i)
    rng = np.random.default_rng(55)
    for _ in range(10):
        sp = random_cloud(rng, 8)
        prof = space_profile(sp)
        cfg = cz_config(prof)
        f = np.zeros(8)
        f[rng.choice(8, 2, replace=False)] = [6.0, 9.0]
        avg = float((f * sp.mass).sum() / sp.mass.sum())
        lam = avg * 1.5
        dec = cz_decompose(sp, whole_space_ball(sp), f, lam)
        if dec.is_empty:
            continue
        mu_omega = sp.mass[dec.omega].sum()
        dil = sum(
            sp.mass[sp.dist[b.center] < cfg.theta * b.radius].sum() for b in dec.selected
        )
        plain = sum(sp.mass[m].sum() for m in dec.selected_members)
        assert mu_omega <= dil * (1 + 1e-12)
        assert dil <= (2 * cfg.theta) ** prof.d_mu * plain * (1 + 1e-12)


# ------------------------------------------------------------ multi level


def test_line4_multilevel_with_small_base(line4):
    cfg = line4_config(line4, a=4.0)
    f = np.array([8.0, 0.0, 0.0, 0.0])
    fam = multi_level_decompose(line4, whole_space_ball(line4), f, cfg, allow_small_a=True)
    assert fam.k0 == 1  # 4**0 < avg(=2) <= 4**1
    assert len(fam.entries) == 1
    entry = fam.entries[0]
    assert entry.level == 4.0
    assert list(entry.omega) == [0]
    assert [list(m) for m in entry.members] == [[0]]
    assert [list(e) for e in entry.pruned] == [[0]]
    assert verify_disjointing(line4, fam, cfg)["violations"] == []


def test_small_base_rejected_without_override(line4):
    cfg = line4_config(line4, a=4.0)
    with pytest.raises(InputError, match="2\\*\\(4\\*theta\\*eta\\)"):
        multi_level_decompose(line4, whole_space_ball(line4), np.ones(4), cfg)


def test_constant_field_gives_empty_family(line4):
    cfg = line4_config(line4)
    fam = multi_level_decompose(line4, whole_space_ball(line4), np.full(4, 3.0), cfg)
    assert fam.entries == []
    assert 1 < 3.0 / cfg.a ** (fam.k0 - 1) and 3.0 <= cfg.a**fam.k0


def test_zero_field_rejected(line4):
    cfg = line4_config(line4)
    with pytest.raises(PreconditionError, match="vanishes"):
        multi_level_decompose(line4, whole_space_ball(line4), np.zeros(4), cfg)


def cascade_space(n=22, ratio=2.0, growth=4.0):
    pts = ratio ** np.arange(n)
    dist = np.abs(pts[:, None] - pts[None, :])
    return QuasiMetricSpace(dist, growth ** np.arange(n))


def test_cascade_produces_multiple_levels():
    sp = cascade_space()
    prof = space_profile(sp)
    cfg = cz_config(prof)
    f = np.zeros(sp.n)
    f[0] = 1.0
    fam = multi_level_decompose(sp, whole_space_ball(sp), f, cfg)
    assert len(fam.entries) >= 2
    report = verify_disjointing(sp, fam, cfg)
    assert report["violations"] == []
    # starting bracket
    assert cfg.a ** (fam.k0 - 1) < fam.base_average <= cfg.a**fam.k0
    # pruned sets pairwise disjoint across all levels (exact)
    seen = set()
    for entry in fam.entries:
        for pruned in entry.pruned:
            for y in pruned:
                assert int(y) not in seen
                seen.add(int(y))


def test_multilevel_respects_omega_nesting():
    sp = cascade_space(n=18, ratio=2.5, growth=3.0)
    prof = space_profile(sp)
    cfg = cz_config(prof)
    f = np.zeros(sp.n)
    f[[0, 2]] = [5.0, 1.0]
    fam = multi_level_decompose(sp, whole_space_ball(sp), f, cfg)
    mf = hl_maximal(sp, f)
    for entry in fam.entries:
        omega = set(int(x) for x in entry.omega)
        assert omega == {x for x in range(sp.n) if mf[x] > entry.level}
        for ball, members in zip(entry.balls, entry.members):
            assert set(int(y) for y in members) <= omega
