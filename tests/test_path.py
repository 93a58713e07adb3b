import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from escape_solver.geometry import RigidMotion
from escape_solver.path import LegBuffers, Polyline, grad_length, leg_chain, length


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


def _reference_leg_chain(points, anchored, closed, eps):
    """`leg_chain` written with np.diff and np.linalg.norm."""
    P = np.asarray(points, dtype=float)
    n = P.shape[0]
    first, last = (0 if anchored else 1), (n + 1 if closed else n)
    ext = np.zeros((n + 2, P.shape[1]))
    ext[1:n + 1] = P
    legs = np.diff(ext[first:last + 1], axis=0)
    d = np.linalg.norm(legs, axis=1)
    if eps:
        d = np.hypot(d, eps)
    u = legs / np.where(d > 0.0, d, 1.0)[:, None]
    u[d == 0.0] = 0.0
    g = np.zeros_like(ext)
    g[first + 1:last + 1] += u
    g[first:last] -= u
    a = np.arange(first - 1, last - 1)
    b = a + 1
    if closed:
        b[-1] = -1
    return float(d.sum()), g[1:n + 1], a, b, d, u


_LEG_COORD = st.one_of(st.floats(-3.0, 3.0),
                       st.sampled_from([0.0, -0.0, 1.0, -0.5, math.inf, math.nan]))


@st.composite
def _chains(draw):
    """Points with repeated neighbours (zero-length legs) and signed zeros."""
    dim = draw(st.sampled_from([2, 3]))
    pts = []
    for _ in range(draw(st.integers(1, 8))):
        if pts and draw(st.booleans()):
            pts.append(pts[-1])
        else:
            pts.append(draw(st.tuples(*[_LEG_COORD] * dim)))
    return np.array(pts)


@given(P=_chains(), anchored=st.booleans(), closed=st.booleans(),
       eps=st.one_of(st.just(0.0), st.floats(1e-13, 1.0)))
def test_leg_chain_is_bitwise_the_reference(P, anchored, closed, eps):
    with np.errstate(invalid="ignore"):
        got = leg_chain(P, anchored, closed, eps)
        lens = LegBuffers(len(P), P.shape[1], anchored, closed)
        lens.points[...] = P
        lens.price(eps)
        ref = _reference_leg_chain(P, anchored, closed, eps)
        ext = np.vstack([np.zeros((1, P.shape[1])), P, np.zeros((1, P.shape[1]))])
        v = np.diff(ext[(0 if anchored else 1):(len(P) + 2 if closed else len(P) + 1)], axis=0)
    assert np.float64(got.total).tobytes() == np.float64(ref[0]).tobytes()
    for x, y in zip(got[1:], ref[1:]):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    # the length part alone, what a line-search trial computes
    assert np.float64(lens.total).tobytes() == np.float64(ref[0]).tobytes()
    for x, y in ((lens.v, v), (lens.d, ref[4])):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
