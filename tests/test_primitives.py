"""One test per primitive kind in the registry: its record's batched kernels
agree with the scalar API and with finite differences, its chart stays on the
boundary, and its text form, motion and scaling keep the zero set.  A property
test checks the solver's batched projections and factor choices on mixed lists
against the scalar API, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from escape_solver import geometry as geo
from escape_solver.export import parse_mtz_text, to_mtz_text
from escape_solver.nlp_solver import _ResidualProgram
from escape_solver.order_search import MtzModel
from escape_solver.scenario import build, make_scenario


def _segment(rng):
    a = rng.uniform(-1, 1, 2)
    return geo.Segment(tuple(a), tuple(a + rng.uniform(0.2, 1, 2)))


def _plane(rng):
    n = rng.normal(size=3)
    return geo.Plane3(tuple(n / np.linalg.norm(n)), float(rng.uniform(-2, 2)))


# a random member of each kind; a kind added to the registry needs one here
SAMPLES = {
    "line": lambda rng: geo.Line(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-2, 2))),
    "circle": lambda rng: geo.Circle(tuple(rng.uniform(-1, 1, 2)), float(rng.uniform(0.2, 2))),
    "point": lambda rng: geo.PointTarget(tuple(rng.uniform(-1, 1, 2))),
    "segment": _segment,
    "plane": _plane,
}


def _central(f, x, h):
    """Central differences of a vector function f along each coordinate of x."""
    cols = []
    for k in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., k] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("tag", list(geo.PRIMITIVES))
def test_primitive_record(tag):
    kind = geo.PRIMITIVES[tag]
    rng = np.random.default_rng(11)
    bs = [SAMPLES[tag](rng) for _ in range(12)]
    assert all(type(b) is kind and b.factors == (b,) for b in bs)
    dim = bs[0].dim
    prm = kind.pack(bs)
    P = rng.uniform(-3, 3, (len(bs), dim))

    # batched residual and gradient: the scalar API's values, and the slope of F
    F, G = kind.residual(prm, P)
    G = np.broadcast_to(G, P.shape)
    for b, p, f, g in zip(bs, P, F, G):
        assert geo.eval_boundary(b, p) == f
        assert np.array_equal(geo.grad_boundary(b, p), g)
    num = np.stack([_central(lambda x, b=b: geo.eval_boundary(b, x), p, 1e-6)
                    for b, p in zip(bs, P)])
    assert np.allclose(G, num, rtol=1e-6, atol=1e-7)

    # projection lands on the zero set, is idempotent, and is the scalar one
    Q = kind.nearest(prm, P)
    assert np.array_equal(Q, np.array([geo.project(b, p) for b, p in zip(bs, P)]))
    assert max(geo.scaled_residual(b, q) for b, q in zip(bs, Q)) <= 1e-10
    assert np.allclose(kind.nearest(prm, Q), Q, rtol=0, atol=1e-10)

    # chart: points on the boundary, coordinates recovered, tangents and
    # curvature equal to differences of the chart
    lo, hi = (0.1, 0.9) if kind.bound != (None, None) else (-2.5, 2.5)
    T = rng.uniform(lo, hi, (len(bs), kind.ndof))
    X = kind.chart_points(prm, T)
    assert max(geo.scaled_residual(b, x) for b, x in zip(bs, X)) <= 1e-10
    assert np.allclose(kind.chart_init(prm, X), T, rtol=0, atol=1e-10)
    tangents = kind.chart_tangents(prm, T)
    assert len(tangents) == kind.ndof
    assert all(e.flags.c_contiguous and e.shape == X.shape for e in tangents)
    if kind.ndof:
        assert np.allclose(np.stack(tangents, axis=-1),
                           _central(lambda t: kind.chart_points(prm, t), T, 1e-6),
                           rtol=0, atol=1e-8)
    h = 1e-4
    for k in range(kind.ndof):
        e = np.zeros_like(T)
        e[:, k] = h
        second = (kind.chart_points(prm, T + e) - 2 * X + kind.chart_points(prm, T - e)) / h**2
        if kind.chart_curvature is None:
            assert np.allclose(second, 0.0, atol=1e-6)
        else:
            assert np.allclose(kind.chart_curvature(prm, T), second, rtol=0, atol=1e-6)

    # the order-model text form reads back as the same boundaries
    k = len(bs)
    model = MtzModel(b=tuple(map(tuple, np.roll(np.eye(k, dtype=int), 1, axis=1))),
                     u=tuple(map(float, range(k))), c=((0.0,) * k,) * k,
                     points=tuple(map(tuple, X)), boundaries=tuple(bs), objective=0.0)
    assert parse_mtz_text(to_mtz_text(model))["boundaries"] == tuple(bs)

    # moved and scaled boundaries pass through the images of on-boundary points
    motion = geo.RigidMotion(center=(0.3, -0.2), angle=0.7, translation=(1.1, 0.4))
    for b, x in zip(bs, X):
        assert geo.scaled_residual(geo.scale_boundary(b, 2.5), 2.5 * x) <= 1e-10
        if dim == 2:
            assert geo.scaled_residual(geo.apply_motion(b, motion), motion.apply(x)) <= 1e-10
        else:
            with pytest.raises(geo.UnsupportedMotionError):
                geo.apply_motion(b, motion)


def test_eval_boundary_takes_a_stack_of_points():
    b = geo.Product((geo.Line(0.4, 1.0), geo.Circle((0.5, -0.2), 0.8)))
    P = np.random.default_rng(5).uniform(-2, 2, (50, 2))
    assert np.array_equal(geo.eval_boundary(b, P),
                          np.array([geo.eval_boundary(b, p) for p in P]))
    with pytest.raises(ValueError):
        geo.eval_boundary(b, np.zeros((4, 3)))


# --------------------------------------------------------------------------
# the solver's batched steps against the scalar API

_COORD = st.one_of(st.floats(-2.0, 2.0), st.integers(-4, 4).map(lambda i: i / 2))
_XY = st.tuples(_COORD, _COORD)
_FACTOR_KINDS = (
    st.builds(geo.Line, st.floats(0.0, 2 * math.pi), _COORD),
    st.builds(geo.Circle, _XY, st.floats(0.25, 2.0)),
    st.builds(geo.PointTarget, _XY),
    st.builds(lambda a, d: geo.Segment(a, (a[0] + d[0], a[1] + d[1])),
              _XY, st.tuples(st.floats(0.2, 1.0), st.floats(-1.0, 1.0))))
_FACTOR = st.one_of(*_FACTOR_KINDS)
_PLANE = st.builds(lambda n, d: geo.Plane3(tuple(np.asarray(n) / np.linalg.norm(n)), d),
                   st.tuples(*[st.integers(-2, 2)] * 3).filter(any), _COORD)


def _mirror(f):
    """f's image through the origin."""
    if isinstance(f, geo.Plane3):
        return geo.Plane3(tuple(-np.asarray(f.normal)), f.offset)
    return geo.rotate_about(f, math.pi)


def _products(factor):
    """A factor, a product of 2-3 factors, or a factor and its mirror image, from
    which the origin is equidistant."""
    return st.one_of(
        factor,
        st.lists(factor, min_size=2, max_size=3).map(lambda fs: geo.Product(tuple(fs))),
        factor.map(lambda f: geo.Product((f, _mirror(f)))))


_FAMILIES = st.one_of(
    st.lists(st.one_of(_products(_FACTOR),
                       st.sampled_from(build(make_scenario("strip_middle_product", 8)).boundaries)),
             min_size=1, max_size=8),
    st.lists(_products(_PLANE), min_size=1, max_size=4))


@given(bnds=_FAMILIES, data=st.data())
def test_batched_steps_equal_the_scalar_api(bnds, data):
    dim = bnds[0].dim
    program = _ResidualProgram(bnds, dim)
    coords = st.tuples(*[_COORD] * dim)

    def row(b):
        # a free point, the origin, or a circle's centre, where every point
        # of the circle is equally close
        special = [(0.0,) * dim] + [f.center for f in b.factors if isinstance(f, geo.Circle)]
        return data.draw(st.one_of(coords, st.sampled_from(special)))

    P = np.array([[row(b) for b in bnds] for _ in range(2)])     # two starts at once
    Q = program.nearest(P)
    for Ps, Qs in zip(P, Q):
        for b, p, q, a in zip(bnds, Ps, Qs, program.branches(Ps)):
            assert q.tobytes() == geo.project(b, p).tobytes()
            near = [geo.project(f, p) for f in b.factors]
            dist = [float(np.linalg.norm(c - p)) for c in near]
            assert q.tobytes() == near[dist.index(min(dist))].tobytes()
            if isinstance(b, geo.Product):
                r = [geo.scaled_residual(f, p) for f in b.factors]
                assert a == r.index(min(r))
            else:
                assert a is None


# --------------------------------------------------------------------------
# the polish's kernels against plain references, bit for bit (tobytes, so a
# flipped sign of zero fails too)

def _gradient_zero(f):
    """A point where f's residual gradient vanishes, or the origin."""
    return {geo.Circle: lambda: f.center, geo.PointTarget: lambda: f.point,
            geo.Segment: lambda: f.a}.get(type(f), lambda: (0.0, 0.0))()


@st.composite
def _product_batches(draw):
    """m products of the same 2 or 3 factor kinds, and m points: free ones, the
    origin, and points where a factor's gradient vanishes."""
    kinds = draw(st.lists(st.sampled_from(_FACTOR_KINDS), min_size=2, max_size=3))
    bnds = [geo.Product(tuple(draw(k) for k in kinds)) for _ in range(draw(st.integers(1, 4)))]
    special = [(0.0, 0.0), (-0.0, 0.0)] + [_gradient_zero(f) for b in bnds for f in b.factors]
    P = np.array([draw(st.one_of(_XY, st.sampled_from(special))) for _ in bnds], dtype=float)
    return bnds, P


@given(batch=_product_batches())
def test_product_rule_is_bitwise_the_reference(batch):
    bnds, P = batch
    packed = geo.Packed(bnds)
    parts = [kind.residual(prm, P) for kind, prm in zip(packed.kinds, packed.prms)]
    fs = np.stack([f for f, _ in parts])
    G_ref = sum(np.prod(np.delete(fs, j, axis=0), axis=0)[:, None] * g
                for j, (_, g) in enumerate(parts))
    F, G = packed.residual(P)
    assert F.tobytes() == np.prod(fs, axis=0).tobytes()
    assert G.shape == G_ref.shape and G.tobytes() == G_ref.tobytes()


_ANGLE = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]))


@given(angles=st.lists(_ANGLE, min_size=1, max_size=12), data=st.data())
def test_circle_charts_are_bitwise_the_stacked_reference(angles, data):
    circles = [data.draw(st.builds(geo.Circle, _XY, st.floats(0.25, 2.0))) for _ in angles]
    c, r = prm = geo.Circle.pack(circles)
    T = np.array(angles)[:, None]
    a = T[:, 0]
    cos_sin = np.stack([np.cos(a), np.sin(a)], axis=1)
    (tangent,) = geo.Circle.chart_tangents(prm, T)
    for got, ref in ((geo.Circle.chart_points(prm, T), c + r[:, None] * cos_sin),
                     (tangent, r[:, None] * np.stack([-np.sin(a), np.cos(a)], axis=1)),
                     (geo.Circle.chart_curvature(prm, T), -r[:, None] * cos_sin)):
        assert got.flags.c_contiguous and got.tobytes() == ref.tobytes()
