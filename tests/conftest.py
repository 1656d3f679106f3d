import numpy as np
import pytest

from shtlab.maximal import hl_maximal
from shtlab.orlicz import _norms_core
from shtlab.space import QuasiMetricSpace, ball_table, build_space


@pytest.fixture
def line4() -> QuasiMetricSpace:
    return build_space({"type": "grid", "shape": [4], "metric": "l1", "mass": "uniform"})


@pytest.fixture
def two_point() -> QuasiMetricSpace:
    return build_space({"type": "explicit", "dist": [[0, 1], [1, 0]], "mass": [1, 1]})


@pytest.fixture
def one_point() -> QuasiMetricSpace:
    return QuasiMetricSpace(np.zeros((1, 1)), np.ones(1))


def table_balls(space: QuasiMetricSpace):
    """Every canonical ball of the space, in table order."""
    tbl = ball_table(space)
    return [tbl.ball(r) for r in range(tbl.m)]


def whole_ball(space: QuasiMetricSpace):
    """The first canonical ball, in table order, whose member set is the whole space."""
    tbl = ball_table(space)
    return tbl.ball(int(np.flatnonzero(tbl.member.all(axis=1))[0]))


def open_ball(space: QuasiMetricSpace, center: int, radius: float) -> np.ndarray:
    """Membership mask of the open ball B(center, radius), read off the distances:
    the oracle of the open-ball rule, independent of the ball table."""
    return space.dist[center] < radius


def restricted_hl(space: QuasiMetricSpace, f, ball) -> np.ndarray:
    """M(f * chi_B) on the whole space, B the open ball of the ``Ball`` ``ball``."""
    return hl_maximal(space, np.asarray(f, dtype=float) * open_ball(space, ball.center, ball.radius))


def ball_norm(space: QuasiMetricSpace, f, ball, phi) -> float:
    """Luxemburg norm of f over the one open ball of the ``Ball`` ``ball``:
    ``_norms_core`` on that one membership row, so the pair is solved alone."""
    member = open_ball(space, ball.center, ball.radius)[None, :]
    weighted = member * space.mass[None, :]
    fmat = np.asarray(f, dtype=float)[None, :]
    return float(_norms_core(member, weighted, weighted.sum(axis=1), space.mass, [(fmat, [phi])])[0][0][0, 0])


def random_cloud(rng: np.random.Generator, n: int, dim: int = 1, masses: str = "random"):
    """Random metric point cloud (kappa = 1) used across property tests."""
    pts = rng.uniform(0.0, 10.0, size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.abs(diff).sum(axis=2) if dim == 1 else np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, 0.0)
    mass = np.ones(n) if masses == "uniform" else 10.0 ** rng.uniform(-1.5, 1.5, n)
    return QuasiMetricSpace(dist, mass)
