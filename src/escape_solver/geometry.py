"""Implicit boundary primitives, their residuals, gradients, projections and rigid motions.

A boundary is the zero set of a scalar field F.  Supported variants are lines
(unit-normal form), circles, single target points, straight segments, products
of sub-boundaries (a point satisfies the product if it lies on any factor), and
planes in 3D.  All values are immutable; every operation here is pure.

Each primitive class is the one record of its kind (see `Primitive`): it packs
same-kind boundaries into stacked arrays and evaluates them with one numpy
expression per operation.  `Packed` builds products from their factors'
records, and the scalar functions below are the stacked operations at m = 1.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

GRAD_FLOOR = 1e-8  # lower clamp for gradient norms when scaling residuals


class SingularGradientError(ValueError):
    """Gradient is not usable at this point (zero set touches it degenerately)."""


class UnsupportedMotionError(ValueError):
    """Rigid motion applied to a variant that does not support it."""


def _vec(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.ndim != 1 or a.shape[0] not in (2, 3):
        raise ValueError(f"expected a 2D or 3D point, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("point has non-finite components")
    return a


def _dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise dot products rounded as `a @ b`: seeds and merged corners come from
    them, and some solves move by 6e-6 with their last bit (charts use einsum)."""
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class RigidMotion:
    """Rotation by `angle` about `center`, followed by `translation`."""

    center: tuple[float, float] = (0.0, 0.0)
    angle: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, -s], [s, c]])

    def apply(self, p) -> np.ndarray:
        p = _vec(p)
        if p.shape[0] != 2:
            raise UnsupportedMotionError("rigid motions are 2D only")
        c = np.asarray(self.center, dtype=float)
        return c + self.matrix() @ (p - c) + np.asarray(self.translation, dtype=float)

    def inverse(self) -> "RigidMotion":
        rinv = RigidMotion(self.center, -self.angle).matrix()
        t = -(rinv @ np.asarray(self.translation, dtype=float))
        return RigidMotion(self.center, -self.angle, (t[0], t[1]))


class Primitive:
    """Everything the solver and the exporters know about one boundary kind.

    A subclass is a frozen dataclass of the kind's fields with:
    - `dim`, and `tag` with `fields()` / `from_fields(values)`: its text form
      in the order-model file (docs/mtz-format.md);
    - `pack(boundaries)`: the tuple `prm` of stacked parameter arrays of m
      boundaries, on which static kernels take an (m, dim) point array P (or
      any number of points against one packed boundary): `residual(prm, P)`
      -> (F (m,), grad F (m, dim)) and `nearest(prm, P)` -> closest points,
      which also takes P with leading axes, (..., m, dim);
    - the reduced chart the polish moves points along: `ndof` coordinates of
      box `bound`, `chart_init(prm, P)` -> T (m, ndof), `chart_points(prm, T)`,
      `chart_tangents(prm, T)` -> the Jacobian's columns, contiguous (m, dim)
      arrays, and for a curved chart `chart_curvature(prm, T)` -> d2p/dt2;
      `residual` and `chart_points` return new arrays, never packed
      parameters, because the solver hands them on without a copy;
    - `chart_eval(prm, T, out=None)` -> (points, frame), one evaluation of
      the chart, its points written into `out` where given.  A chart without
      `chart_curvature` has constant tangents and no frame (None); a curved
      chart's frame is what its points came from, and `chart_jet(prm, frame,
      out=None)` -> (tangents, curvature) gives the rest from it (written
      into the `out` pair of arrays where given), so a Newton iterate
      evaluates each curved chart once, bitwise as the three functions above;
    - `moved(motion)` and `scaled(s)`: the boundary through the image points;
    - `svg_extent()`, points a drawing must include, and `svg_shape(reach)`,
      an (element, attributes, style) triple, lines `reach` long each way.
    """

    bound = (None, None)
    chart_curvature = None

    @classmethod
    def chart_eval(cls, prm, T, out=None):
        P = cls.chart_points(prm, T)
        if out is not None:
            out[...] = P
            P = out
        return P, None

    def svg_extent(self) -> list:
        return []

    def svg_shape(self, reach: float):
        return None  # not drawn

    @property
    def factors(self) -> tuple:
        return (self,)


class _Hyperplane(Primitive):
    """Kernels shared by Line and Plane3: n . p = d with a unit normal n; the
    chart is an orthonormal in-plane frame.  Packed as (n, d, E, d n) with E
    the tuple of the frame's ndof (m, dim) vectors and d n the chart's
    origin, the foot of the normal."""

    @staticmethod
    def residual(prm, P):
        n, d, *_ = prm
        return _dot(P, n) - d, n.copy()

    @staticmethod
    def nearest(prm, P):
        n, d, *_ = prm
        return P - (_dot(P, n) - d)[..., None] * n

    @staticmethod
    def chart_init(prm, P):
        return np.stack([np.einsum("ij,ij->i", P, e) for e in prm[2]], axis=1)

    @staticmethod
    def chart_eval(prm, T, out=None):
        E, P = prm[2], prm[3]
        for k, e in enumerate(E):   # ndof >= 1, so P is never the packed origin
            P = np.add(P, T[:, k:k + 1] * e, out=out)
        return P, None

    @staticmethod
    def chart_points(prm, T):
        return _Hyperplane.chart_eval(prm, T)[0]

    @staticmethod
    def chart_tangents(prm, T):
        return prm[2]


@dataclass(frozen=True)
class Line(_Hyperplane):
    """x*cos(angle) + y*sin(angle) - offset = 0 (unit normal form)."""

    angle: float
    offset: float

    dim = 2
    tag = "line"
    ndof = 1

    def normal(self) -> np.ndarray:
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    def tangent(self) -> np.ndarray:
        return np.array([-math.sin(self.angle), math.cos(self.angle)])

    @staticmethod
    def pack(lines) -> tuple:
        n = np.array([[math.cos(f.angle), math.sin(f.angle)] for f in lines])
        v = np.array([[-math.sin(f.angle), math.cos(f.angle)] for f in lines])
        d = np.array([f.offset for f in lines])
        return n, d, (v,), d[:, None] * n

    def moved(self, m: RigidMotion) -> "Line":
        phi = self.angle + m.angle
        n_new = np.array([math.cos(phi), math.sin(phi)])
        c = np.asarray(m.center, dtype=float)
        t = np.asarray(m.translation, dtype=float)
        delta = self.offset + (c + t) @ n_new - c @ self.normal()
        return Line(phi, float(delta))

    def scaled(self, s: float) -> "Line":
        return Line(self.angle, s * self.offset)

    def fields(self) -> tuple:
        return (self.angle, self.offset)

    @classmethod
    def from_fields(cls, v) -> "Line":
        return cls(v[0], v[1])

    def svg_extent(self) -> list:
        return [(self.offset * math.cos(self.angle), self.offset * math.sin(self.angle))]

    def svg_shape(self, reach: float):
        # the ends mid - reach * t and mid + reach * t, with t = (-sin, cos)
        mx, my = self.svg_extent()[0]
        dx, dy = reach * math.sin(self.angle), reach * math.cos(self.angle)
        return "line", (("x1", mx + dx), ("y1", my - dy), ("x2", mx - dx), ("y2", my + dy)), \
            "boundary"


def _cos_sin(a: np.ndarray) -> np.ndarray:
    """Rows (cos a, sin a), written into one (m, 2) array: the values of
    `np.stack([np.cos(a), np.sin(a)], axis=1)` at a fraction of its cost."""
    U = np.empty((a.size, 2))
    np.cos(a, out=U[:, 0])
    np.sin(a, out=U[:, 1])
    return U


@dataclass(frozen=True)
class Circle(Primitive):
    center: tuple[float, float]
    radius: float

    dim = 2
    tag = "circle"
    ndof = 1

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("circle radius must be positive")

    @staticmethod
    def pack(circles) -> tuple:
        return (np.array([f.center for f in circles], dtype=float),
                np.array([f.radius for f in circles]))

    @staticmethod
    def residual(prm, P):
        c, r = prm
        dvec = P - c
        return _dot(dvec, dvec) - r * r, 2.0 * dvec

    @staticmethod
    def nearest(prm, P):
        c, r = prm
        dvec = P - c
        dist = np.sqrt(_dot(dvec, dvec))
        centre = dist < 1e-12
        Q = c + (r / np.where(centre, 1.0, dist))[..., None] * dvec
        # at the centre every circle point is equally close; take angle 0
        return np.where(centre[..., None], c + r[:, None] * np.array([1.0, 0.0]), Q)

    @staticmethod
    def chart_init(prm, P):
        dv = P - prm[0]
        return np.arctan2(dv[:, 1], dv[:, 0])[:, None]

    @staticmethod
    def chart_eval(prm, T, out=None):
        """The points at angles T and their frame, the rows (cos a, sin a)."""
        U = _cos_sin(T[:, 0])
        out = np.empty_like(U) if out is None else out
        np.multiply(prm[1][:, None], U, out=out)
        np.add(prm[0], out, out=out)
        return out, U

    @staticmethod
    def chart_jet(prm, U, out=None):
        """Tangents r (-sin a, cos a) and curvature -r (cos a, sin a) at the
        frame U of `chart_eval`."""
        V, C = (np.empty_like(U), np.empty_like(U)) if out is None else out
        np.negative(U[:, 1], out=V[:, 0])
        V[:, 1] = U[:, 0]
        r = prm[1][:, None]
        np.multiply(r, V, out=V)
        np.multiply(r, U, out=C)
        np.negative(C, out=C)   # -(r U) is (-r) U, bit for bit
        return (V,), C

    @staticmethod
    def chart_points(prm, T):
        return Circle.chart_eval(prm, T)[0]

    @staticmethod
    def chart_tangents(prm, T):
        return Circle.chart_jet(prm, _cos_sin(T[:, 0]))[0]

    @staticmethod
    def chart_curvature(prm, T):
        return Circle.chart_jet(prm, _cos_sin(T[:, 0]))[1]

    def moved(self, m: RigidMotion) -> "Circle":
        c = m.apply(self.center)
        return Circle((c[0], c[1]), self.radius)

    def scaled(self, s: float) -> "Circle":
        return Circle((s * self.center[0], s * self.center[1]), s * self.radius)

    def fields(self) -> tuple:
        return (*self.center, self.radius)

    @classmethod
    def from_fields(cls, v) -> "Circle":
        return cls((v[0], v[1]), v[2])

    def svg_extent(self) -> list:
        (x, y), r = self.center, self.radius
        return [(x - r, y - r), (x + r, y + r)]

    def svg_shape(self, reach: float):
        return ("circle", (("cx", self.center[0]), ("cy", self.center[1]),
                           ("r", self.radius)), "boundary")


@dataclass(frozen=True)
class PointTarget(Primitive):
    point: tuple[float, float]

    dim = 2
    tag = "point"
    ndof = 0

    @staticmethod
    def pack(points) -> tuple:
        return (np.array([f.point for f in points], dtype=float),)

    @staticmethod
    def residual(prm, P):
        dvec = P - prm[0]
        return _dot(dvec, dvec), 2.0 * dvec

    @staticmethod
    def nearest(prm, P):
        return np.broadcast_to(prm[0], P.shape).copy()

    @staticmethod
    def chart_init(prm, P):
        return np.zeros((len(P), 0))

    @staticmethod
    def chart_points(prm, T):
        return prm[0].copy()

    @staticmethod
    def chart_tangents(prm, T):
        return ()

    def moved(self, m: RigidMotion) -> "PointTarget":
        q = m.apply(self.point)
        return PointTarget((q[0], q[1]))

    def scaled(self, s: float) -> "PointTarget":
        return PointTarget((s * self.point[0], s * self.point[1]))

    def fields(self) -> tuple:
        return tuple(self.point)

    @classmethod
    def from_fields(cls, v) -> "PointTarget":
        return cls((v[0], v[1]))

    def svg_extent(self) -> list:
        return [tuple(self.point)]

    def svg_shape(self, reach: float):
        return "circle", (("cx", self.point[0]), ("cy", self.point[1]), ("r", 0.02)), "escape"


@dataclass(frozen=True)
class Segment(Primitive):
    """Straight segment between `a` and `b`; residual is squared distance to it."""

    a: tuple[float, float]
    b: tuple[float, float]

    dim = 2
    tag = "segment"
    ndof = 1
    bound = (0.0, 1.0)

    def __post_init__(self):
        # chart_init divides by the squared length, so it must not underflow
        _, d = Segment.pack((self,))
        if not np.einsum("ij,ij->i", d, d)[0] >= np.finfo(float).tiny:
            raise ValueError("segment endpoints coincide or are too close")

    @staticmethod
    def pack(segments) -> tuple:
        a = np.array([f.a for f in segments], dtype=float)
        return a, np.array([f.b for f in segments], dtype=float) - a

    @staticmethod
    def chart_init(prm, P):
        a, d = prm
        return np.clip(np.einsum("...j,...j->...", P - a, d) / np.einsum("ij,ij->i", d, d),
                       0.0, 1.0)[..., None]

    @staticmethod
    def chart_points(prm, T):
        a, d = prm
        return a + np.clip(T[..., :1], 0.0, 1.0) * d

    @staticmethod
    def chart_tangents(prm, T):
        return (prm[1],)

    @staticmethod
    def nearest(prm, P):
        return Segment.chart_points(prm, Segment.chart_init(prm, P))

    @staticmethod
    def residual(prm, P):
        dvec = P - Segment.nearest(prm, P)
        return _dot(dvec, dvec), 2.0 * dvec

    def moved(self, m: RigidMotion) -> "Segment":
        a, bb = m.apply(self.a), m.apply(self.b)
        return Segment((a[0], a[1]), (bb[0], bb[1]))

    def scaled(self, s: float) -> "Segment":
        return Segment((s * self.a[0], s * self.a[1]), (s * self.b[0], s * self.b[1]))

    def fields(self) -> tuple:
        return (*self.a, *self.b)

    @classmethod
    def from_fields(cls, v) -> "Segment":
        return cls((v[0], v[1]), (v[2], v[3]))

    def svg_extent(self) -> list:
        return [tuple(self.a), tuple(self.b)]

    def svg_shape(self, reach: float):
        return ("line", (("x1", self.a[0]), ("y1", self.a[1]),
                         ("x2", self.b[0]), ("y2", self.b[1])), "boundary")


@dataclass(frozen=True)
class Plane3(_Hyperplane):
    """normal . p - offset = 0 with a unit normal."""

    normal: tuple[float, float, float]
    offset: float

    dim = 3
    tag = "plane"
    ndof = 2

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("plane normal must have unit norm")

    @staticmethod
    def pack(planes) -> tuple:
        n = np.array([f.normal for f in planes], dtype=float)
        e1 = np.cross(n, [0.0, 0.0, 1.0])
        bad = np.linalg.norm(e1, axis=1) < 1e-9
        e1[bad] = np.cross(n[bad], [1.0, 0.0, 0.0])
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        d = np.array([f.offset for f in planes])
        return n, d, (e1, np.cross(n, e1)), d[:, None] * n

    def scaled(self, s: float) -> "Plane3":
        return Plane3(self.normal, s * self.offset)

    def fields(self) -> tuple:
        return (*self.normal, self.offset)

    @classmethod
    def from_fields(cls, v) -> "Plane3":
        return cls((v[0], v[1], v[2]), v[3])


# The primitive kinds by text tag.  The order is the order of the reduced
# coordinates in the polish, so it is part of the solver's bitwise output.
PRIMITIVES = {k.tag: k for k in (Line, Circle, PointTarget, Segment, Plane3)}


@dataclass(frozen=True)
class Product:
    """Zero set is the union of the factors' zero sets."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("product needs at least two factors")
        dims = {f.dim for f in self.factors}
        if len(dims) != 1:
            raise ValueError("product factors have mixed dimensions")

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    def moved(self, m: RigidMotion) -> "Product":
        return Product(tuple(f.moved(m) for f in self.factors))

    def scaled(self, s: float) -> "Product":
        return Product(tuple(f.scaled(s) for f in self.factors))


BoundaryExpr = Line | Circle | PointTarget | Segment | Product | Plane3


def _cast(prm, dtype):
    """A kind's packed parameters (arrays, or tuples of them) cast to dtype."""
    return tuple(_cast(a, dtype) if isinstance(a, tuple) else np.asarray(a, dtype) for a in prm)


class Packed:
    """Boundaries of one shape (one kind, or products of the same factor kinds)
    with each factor's parameters stacked by its kind's record."""

    def __init__(self, boundaries):
        self.kinds = tuple(type(f) for f in boundaries[0].factors)
        self.prms = tuple(kind.pack([b.factors[j] for b in boundaries])
                          for j, kind in enumerate(self.kinds))

    def residual(self, P: np.ndarray, dtype=None):
        """F (m,) and grad F (m, dim); a product's through the product rule.
        A dtype (np.longdouble) casts the parameters to it first."""
        prms = self.prms if dtype is None else [_cast(prm, dtype) for prm in self.prms]
        parts = [kind.residual(prm, P) for kind, prm in zip(self.kinds, prms)]
        if len(parts) == 1:
            return parts[0]
        # products in factor order, rounded as np.prod rounds them; the
        # gradient sum starts from 0, so a first term of -0 enters as +0
        fs = [f for f, _ in parts]
        G = 0
        for j, (_, g) in enumerate(parts):
            G = G + functools.reduce(operator.mul, fs[:j] + fs[j + 1:])[:, None] * g
        return functools.reduce(operator.mul, fs), G

    def nearest(self, P: np.ndarray) -> np.ndarray:
        """Closest zero-set point to each row of P, (..., m, dim); a product's is
        its first factor's at the least distance, rounded as `a @ b`."""
        Q = [kind.nearest(prm, P) for kind, prm in zip(self.kinds, self.prms)]
        if len(Q) == 1:
            return Q[0]
        Q = np.stack(Q)
        D = Q - P
        first = np.argmin(np.sqrt(_dot(D, D)), axis=0)
        return np.take_along_axis(Q, first[None, ..., None], axis=0)[0]

    def nearest_factor(self, P: np.ndarray) -> np.ndarray:
        """Index of the factor with the least scaled residual at each row of P (the
        first on a tie), each residual rounded as `scaled_residual` rounds it."""
        R = []
        for kind, prm in zip(self.kinds, self.prms):
            F, G = kind.residual(prm, P)
            R.append(np.abs(F) / np.maximum(np.sqrt(_dot(G, G)), GRAD_FLOOR))
        return np.argmin(R, axis=0)


def pack_by_shape(boundaries) -> list:
    """(row indices, Packed) for each shape in the list, in PRIMITIVES order."""
    rows: dict = {}
    for h, b in enumerate(boundaries):
        rows.setdefault(tuple(type(f) for f in b.factors), []).append(h)
    rank = {kind: i for i, kind in enumerate(PRIMITIVES.values())}
    return [(np.array(idx), Packed([boundaries[h] for h in idx]))
            for key, idx in sorted(rows.items(), key=lambda kv: [rank[k] for k in kv[0]])]


def _rows(b, p) -> np.ndarray:
    """A point (dim,) or a stack of points (m, dim) as an (m, dim) array for b."""
    a = np.asarray(p, dtype=float)
    P = a if a.ndim == 2 else _vec(a)[None]
    if P.shape[1] != b.dim or not np.all(np.isfinite(P)):
        raise ValueError(f"{type(b).__name__} takes finite {b.dim}D points, got {a.shape}")
    return P


def eval_boundary(b: BoundaryExpr, p):
    """Residual F(p); zero exactly when p lies on the boundary.

    For an (m, dim) array of points it returns the m residuals as an array.
    """
    F = Packed([b]).residual(_rows(b, p))[0]
    return F if np.ndim(p) == 2 else float(F[0])


def grad_boundary(b: BoundaryExpr, p) -> np.ndarray:
    """Gradient of the residual at p.

    Raises SingularGradientError where the gradient degenerates to zero on the
    zero set itself (a point target at its own point, a segment on the segment).
    """
    F, G = Packed([b]).residual(_rows(b, _vec(p)))
    if F[0] == 0.0 and not G[0].any():
        raise SingularGradientError(f"{type(b).__name__} gradient vanishes at {tuple(p)}")
    return G[0]


def scaled_residual(b: BoundaryExpr, p) -> float:
    """|F| / max(||grad F||, floor): a first-order distance estimate to the zero set."""
    F, G = Packed([b]).residual(_rows(b, _vec(p)))
    return abs(float(F[0])) / max(float(np.linalg.norm(G[0])), GRAD_FLOOR)


def project(b: BoundaryExpr, p) -> np.ndarray:
    """Closest point of the zero set (closed form for every supported variant)."""
    return Packed([b]).nearest(_rows(b, _vec(p)))[0]


def apply_motion(b: BoundaryExpr, m: RigidMotion) -> BoundaryExpr:
    """Boundary whose zero set is the rigid-motion image of b's zero set."""
    if b.dim != 2:
        raise UnsupportedMotionError("rigid motions are 2D only")
    return b.moved(m)


def translate(b: BoundaryExpr, offset) -> BoundaryExpr:
    """Pure translation (convenience wrapper around apply_motion)."""
    off = np.asarray(offset, dtype=float)
    return apply_motion(b, RigidMotion(translation=(off[0], off[1])))


def rotate_about(b: BoundaryExpr, angle: float, center=(0.0, 0.0)) -> BoundaryExpr:
    """Pure rotation about a pivot (convenience wrapper around apply_motion)."""
    c = np.asarray(center, dtype=float)
    return apply_motion(b, RigidMotion(center=(c[0], c[1]), angle=angle))


def scale_boundary(b: BoundaryExpr, s: float) -> BoundaryExpr:
    """Dilation about the origin by a positive factor."""
    if s <= 0:
        raise ValueError("scale factor must be positive")
    return b.scaled(s)
