import numpy as np
import pytest

from escape_solver.geometry import RigidMotion
from escape_solver.path import Polyline, grad_length, length


def test_single_anchored_point():
    assert length(Polyline(((1.0, 0.0),))).total == pytest.approx(1.0)


def test_open_two_points():
    assert length(Polyline(((1.0, 0.0), (-1.0, 0.0)))).total == pytest.approx(3.0)


def test_closed_adds_return_leg():
    poly = Polyline(((1.0, 0.0), (-1.0, 0.0)), closed=True)
    assert length(poly).total == pytest.approx(4.0)


def test_closed_requires_anchor():
    with pytest.raises(ValueError):
        Polyline(((1.0, 0.0),), anchored=False, closed=True)


@pytest.mark.parametrize("points", [(), np.empty((0, 2))])
def test_empty_polyline_is_refused(points):
    with pytest.raises(ValueError, match="at least one point"):
        Polyline(points)


def test_per_leg_sums_to_total():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pts = rng.uniform(-5, 5, (int(rng.integers(1, 9)), 2))
        rep = length(Polyline(tuple(map(tuple, pts)), closed=bool(rng.random() < 0.3)))
        assert abs(rep.total - sum(rep.per_leg)) <= 1e-12


def test_grad_single_point():
    g = grad_length(Polyline(((1.0, 0.0),)))
    assert np.allclose(g, [[1.0, 0.0]])


def test_grad_collinear_pair():
    g = grad_length(Polyline(((1.0, 0.0), (2.0, 0.0))))
    assert np.allclose(g[0], [0.0, 0.0])
    assert np.allclose(g[1], [1.0, 0.0])


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(60):
        pts = rng.uniform(-2, 2, (6, 2))
        poly = Polyline(tuple(map(tuple, pts)))
        g = grad_length(poly).ravel()
        num = np.zeros_like(g)
        h = 1e-6
        flat = pts.ravel().astype(float)
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = h
            fp = length(Polyline(tuple(map(tuple, (flat + e).reshape(6, 2))))).total
            fm = length(Polyline(tuple(map(tuple, (flat - e).reshape(6, 2))))).total
            num[i] = (fp - fm) / (2 * h)
        assert np.linalg.norm(g - num) / np.linalg.norm(num) < 1e-6


def test_zero_leg_subgradient_is_zero():
    poly = Polyline(((1.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    g = grad_length(poly)
    assert np.all(np.isfinite(g))
    # middle point only feels the outgoing leg
    assert np.allclose(g[1], [-1.0, 0.0])


def test_removing_interior_point_never_lengthens():
    rng = np.random.default_rng(2)
    for _ in range(100):
        pts = rng.uniform(-3, 3, (5, 2))
        full = length(Polyline(tuple(map(tuple, pts)))).total
        for i in range(1, 4):
            sub = np.delete(pts, i, axis=0)
            assert length(Polyline(tuple(map(tuple, sub)))).total <= full + 1e-12


def test_rigid_motion_invariance_of_length():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pts = rng.uniform(-2, 2, (4, 2))
        m = RigidMotion(center=(0.0, 0.0), angle=rng.uniform(0, 6.28),
                        translation=(0.0, 0.0))
        moved = np.array([m.apply(p) for p in pts])
        a = length(Polyline(tuple(map(tuple, pts)))).total
        b = length(Polyline(tuple(map(tuple, moved)))).total
        assert abs(a - b) <= 1e-12


def test_scaling_scales_length():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, (5, 2))
    base = length(Polyline(tuple(map(tuple, pts)))).total
    for s in (0.5, 2.0, 3.7):
        scaled = length(Polyline(tuple(map(tuple, s * pts)))).total
        assert abs(scaled - s * base) <= 1e-12 * max(1.0, s * base)


def test_three_dimensional_paths():
    poly = Polyline(((0.0, 0.0, 2.0), (0.0, 3.0, 2.0)))
    assert length(poly).total == pytest.approx(5.0)
    assert grad_length(poly).shape == (2, 3)
