import math

import numpy as np
import pytest

from escape_solver import geometry as geo


def test_eval_line_on_point():
    assert geo.eval_boundary(geo.Line(0.0, 1.0), (1.0, 0.0)) == 0.0


def test_eval_circle_on_point():
    assert geo.eval_boundary(geo.Circle((1.0, 0.0), 0.5), (0.5, 0.0)) == pytest.approx(0.0)


def test_eval_product_first_factor_zero():
    b = geo.Product((geo.Line(0.0, 1.0), geo.Line(math.pi, 1.0)))
    assert geo.eval_boundary(b, (1.0, 0.0)) == pytest.approx(0.0)


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        geo.eval_boundary(geo.Line(0.0, 1.0), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        geo.eval_boundary(geo.Plane3((0.0, 0.0, 1.0), 1.0), (1.0, 0.0))


def test_grad_line_constant():
    assert np.allclose(geo.grad_boundary(geo.Line(0.0, 1.0), (5.0, -3.0)), [1.0, 0.0])


def test_grad_circle():
    assert np.allclose(geo.grad_boundary(geo.Circle((0.0, 0.0), 1.0), (2.0, 0.0)), [4.0, 0.0])


def test_grad_product_rule():
    b = geo.Product((geo.Line(0.0, 1.0), geo.Line(0.0, 2.0)))
    g = geo.grad_boundary(b, (0.0, 0.0))
    assert np.allclose(g, [-3.0, 0.0])
    # independent finite-difference confirmation
    h = 1e-6
    num = (geo.eval_boundary(b, (h, 0.0)) - geo.eval_boundary(b, (-h, 0.0))) / (2 * h)
    assert g[0] == pytest.approx(num, rel=1e-6)


def test_grad_singular_at_point_target():
    with pytest.raises(geo.SingularGradientError):
        geo.grad_boundary(geo.PointTarget((0.3, 0.4)), (0.3, 0.4))
    with pytest.raises(geo.SingularGradientError):
        geo.grad_boundary(geo.Segment((0.0, 0.0), (1.0, 0.0)), (0.5, 0.0))


@pytest.mark.parametrize("b,p,expected", [
    (geo.Line(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)),
    (geo.Circle((0.0, 0.0), 1.0), (2.0, 0.0), (1.0, 0.0)),
    (geo.Product((geo.Line(math.pi / 2, 1.0), geo.Line(-math.pi / 2, 1.0))),
     (0.0, 0.9), (0.0, 1.0)),
])
def test_project_examples(b, p, expected):
    assert np.allclose(geo.project(b, p), expected)


def _random_boundaries(rng):
    yield geo.Line(rng.uniform(0, 2 * math.pi), rng.uniform(-2, 2))
    yield geo.Circle(tuple(rng.uniform(-1, 1, 2)), rng.uniform(0.2, 2))
    yield geo.PointTarget(tuple(rng.uniform(-1, 1, 2)))
    a = rng.uniform(-1, 1, 2)
    yield geo.Segment(tuple(a), tuple(a + rng.uniform(0.1, 1, 2)))
    yield geo.Product((geo.Line(rng.uniform(0, 6), rng.uniform(-2, 2)),
                       geo.Circle(tuple(rng.uniform(-1, 1, 2)), rng.uniform(0.2, 2))))


def test_projection_feasible_and_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(80):
        for b in _random_boundaries(rng):
            p = rng.uniform(-3, 3, 2)
            q = geo.project(b, p)
            assert geo.scaled_residual(b, q) <= 1e-10
            q2 = geo.project(b, q)
            assert np.linalg.norm(q2 - q) <= 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(200):
        for b in _random_boundaries(rng):
            p = rng.uniform(-3, 3, 2)
            if isinstance(b, (geo.PointTarget, geo.Segment)) and \
               geo.scaled_residual(b, p) < 0.05:
                continue
            g = geo.grad_boundary(b, p)
            num = np.zeros(2)
            h = 1e-6
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                num[i] = (geo.eval_boundary(b, p + e) - geo.eval_boundary(b, p - e)) / (2 * h)
            assert np.linalg.norm(g - num) / max(np.linalg.norm(num), 1e-8) < 1e-5


def test_apply_motion_rotates_line():
    moved = geo.apply_motion(geo.Line(0.0, 1.0), geo.RigidMotion(angle=math.pi / 2))
    # the moved line is y = 1
    assert geo.eval_boundary(moved, (3.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert moved.angle == pytest.approx(math.pi / 2)


def test_apply_motion_identity_fieldwise():
    ident = geo.RigidMotion()
    for b in (geo.Line(0.3, 1.2), geo.Circle((1.0, 0.5), 0.7), geo.PointTarget((0.1, 0.2))):
        same = geo.apply_motion(b, ident)
        assert type(same) is type(b)
        for name in same.__dataclass_fields__:
            a, c = getattr(b, name), getattr(same, name)
            assert np.allclose(a, c, atol=1e-15)


def test_apply_motion_circle_half_turn():
    moved = geo.apply_motion(geo.Circle((1.0, 0.0), 0.5), geo.RigidMotion(angle=math.pi))
    assert np.allclose(moved.center, (-1.0, 0.0), atol=1e-12)
    assert moved.radius == 0.5


def test_motion_preserves_residuals():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = geo.RigidMotion(center=tuple(rng.uniform(-1, 1, 2)),
                            angle=rng.uniform(0, 2 * math.pi),
                            translation=tuple(rng.uniform(-1, 1, 2)))
        for b in (geo.Line(rng.uniform(0, 6), rng.uniform(-2, 2)),
                  geo.Circle(tuple(rng.uniform(-1, 1, 2)), rng.uniform(0.2, 2)),
                  geo.PointTarget(tuple(rng.uniform(-1, 1, 2)))):
            p = rng.uniform(-2, 2, 2)
            lhs = geo.eval_boundary(geo.apply_motion(b, m), m.apply(p))
            assert lhs == pytest.approx(geo.eval_boundary(b, p), abs=1e-12)


def test_motion_inverse_and_isometry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = geo.RigidMotion(center=tuple(rng.uniform(-1, 1, 2)),
                            angle=rng.uniform(0, 2 * math.pi),
                            translation=tuple(rng.uniform(-1, 1, 2)))
        inv = m.inverse()
        p, q = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        assert np.linalg.norm(inv.apply(m.apply(p)) - p) <= 1e-12
        assert abs(np.linalg.norm(m.apply(p) - m.apply(q)) - np.linalg.norm(p - q)) <= 1e-12


def test_plane_unsupported_motion():
    with pytest.raises(geo.UnsupportedMotionError):
        geo.apply_motion(geo.Plane3((0.0, 0.0, 1.0), 1.0), geo.RigidMotion(angle=0.1))


def test_validation_errors():
    with pytest.raises(ValueError):
        geo.Circle((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        geo.Product((geo.Line(0.0, 1.0),))
    with pytest.raises(ValueError):
        geo.Plane3((0.0, 0.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        geo.Segment((0.0, 0.0), (0.0, 0.0))
    # d·d underflows to 0, where projecting onto it would divide 0 by 0
    with pytest.raises(ValueError):
        geo.Segment((0.0, 0.0), (1e-170, 0.0))
    geo.Segment((0.0, 0.0), (1e-150, 0.0))


def test_scale_boundary():
    b = geo.Circle((1.0, 0.0), 0.5)
    s = geo.scale_boundary(b, 2.0)
    assert s.center == (2.0, 0.0) and s.radius == 1.0
    assert geo.scale_boundary(geo.Line(0.3, -0.5), 2.0).offset == -1.0
