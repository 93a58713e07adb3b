"""Polyline objectives: lengths and exact gradients for open, closed and 3D paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Polyline:
    """Ordered visit points; `anchored` adds the origin->first leg, `closed` the return leg."""

    points: tuple
    anchored: bool = True
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise ValueError("a polyline needs at least one point")
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ValueError("points must be an (n, 2) or (n, 3) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline has non-finite coordinates")
        if self.closed and not self.anchored:
            raise ValueError("a closed path is anchored by definition")
        object.__setattr__(self, "points", tuple(map(tuple, pts)))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


@dataclass(frozen=True)
class LengthReport:
    total: float
    per_leg: tuple = field(default_factory=tuple)


class LegChain(NamedTuple):
    """The legs of a polyline and its length objective (see `leg_chain`)."""

    total: float        # d.sum()
    grad: np.ndarray    # (n, dim): d(total)/d(point)
    a: np.ndarray       # start point of each leg; -1 is the origin
    b: np.ndarray       # end point of each leg; -1 is the origin
    d: np.ndarray       # leg lengths (smoothed: sqrt(|v|^2 + eps^2) of leg vector v)
    u: np.ndarray       # v / d, 0 on a zero-length leg


def _span(n: int, anchored: bool, closed: bool) -> tuple:
    """Rows first..last of [origin, p_0, ..., p_{n-1}, origin] are the chain."""
    return (0 if anchored else 1), (n + 1 if closed else n)


def _leg_ends(first: int, last: int, closed: bool) -> tuple:
    """`LegChain.a` and `LegChain.b` of the chain in rows first..last."""
    a = np.arange(first - 1, last - 1)
    b = a + 1
    if closed:
        b[-1] = -1
    return a, b


class LegBuffers:
    """The legs of one chain of n points, computed in place, over and over (a
    line search's trials): write the points into `points`, then `price(eps)`
    writes the leg vectors `v` and lengths `d` and returns their `total`, and
    `slope()` writes the unit vectors `u` and the gradient rows `grad`, for a
    chain with every d > 0; `chain()` is the `LegChain` of these arrays.  The
    arithmetic is `leg_chain`'s, bit for bit."""

    def __init__(self, n: int, dim: int, anchored: bool = True, closed: bool = False):
        first, last = _span(n, anchored, closed)
        self._a, self._b = _leg_ends(first, last, closed)
        ext = np.zeros((n + 2, dim))   # [origin, p_0, ..., p_{n-1}, origin]
        self.points = ext[1:n + 1]
        self._heads, self._tails = ext[first + 1:last + 1], ext[first:last]
        self.v, self.d = np.empty((last - first, dim)), np.empty(last - first)
        self._d = self.d[:, None]
        U = np.zeros((n + 1, dim))   # leg r's unit vector in row r, 0 off the chain
        self.u, self._in, self._out = U[first:last], U[:n], U[1:]
        self.grad = np.empty((n, dim))
        self.total = 0.0

    def price(self, eps: float = 0.0) -> float:
        """Leg vectors heads - tails, their lengths (smoothed by eps > 0) and
        the total."""
        np.subtract(self._heads, self._tails, out=self.v)
        np.add.reduce(self.v * self.v, axis=1, out=self.d)   # np.linalg.norm's own reduction
        np.sqrt(self.d, out=self.d)
        if eps:
            np.hypot(self.d, eps, out=self.d)
        self.total = float(np.add.reduce(self.d))
        return self.total

    def slope(self):
        np.divide(self.v, self._d, out=self.u)
        self.gradient()

    def gradient(self):
        """Point i's gradient row 0 + u_in - u_out (the sign of a zero kept)."""
        np.add(0.0, self._in, out=self.grad)
        np.subtract(self.grad, self._out, out=self.grad)

    def chain(self) -> LegChain:
        return LegChain(self.total, self.grad, self._a, self._b, self.d, self.u)


def leg_chain(points: np.ndarray, anchored: bool = True, closed: bool = False,
              eps: float = 0.0) -> LegChain:
    """Length of the polyline through an (n, dim) point array and its gradient.

    The origin starts the first leg when `anchored` and ends the last when
    `closed`.  A zero-length leg contributes nothing to the gradient
    (subgradient choice: keeps the solver stable when consecutive escape
    points merge).  With `eps` > 0 each leg length is smoothed to
    sqrt(|v|^2 + eps^2), which is smooth everywhere and overstates the
    length by at most eps per leg.

    Every value is rounded as `np.diff` and `np.linalg.norm` round it, and
    the gradient rows are 0 + u_in - u_out, so the sign of a zero survives;
    the polish's iterates depend on these bits.  It is a new `LegBuffers`
    priced and sloped, with u = 0 on each zero-length leg.
    """
    P = np.asarray(points, dtype=float)
    legs = LegBuffers(P.shape[0], P.shape[1], anchored, closed)
    legs.points[...] = P
    legs.price(eps)
    d = legs.d
    if np.count_nonzero(d > 0.0) == d.size:
        legs.slope()
    else:
        np.divide(legs.v, np.where(d > 0.0, d, 1.0)[:, None], out=legs.u)
        legs.u[d == 0.0] = 0.0
        legs.gradient()
    return legs.chain()


def length(poly: Polyline) -> LengthReport:
    """Total polyline length with per-leg breakdown (compensated summation)."""
    per = leg_chain(poly.as_array(), poly.anchored, poly.closed).d
    total = 0.0
    comp = 0.0  # Kahan compensation so total == sum(per_leg) tightly
    for d in per:
        y = d - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return LengthReport(float(total), tuple(float(d) for d in per))


def grad_length(poly: Polyline) -> np.ndarray:
    """d(length)/d(point): one row per visit point (see `leg_chain`)."""
    return leg_chain(poly.as_array(), poly.anchored, poly.closed).grad


def min_width(poly: Polyline) -> tuple[float, float]:
    """Smallest width of a 2D path (the origin included when anchored) over
    4096 evenly spaced normal angles in [0, pi), and the angle where it
    occurs.  A path escapes every unit-width strip it starts in iff its width
    is at least 1 in every direction."""
    pts = poly.as_array()
    if poly.anchored:
        pts = np.vstack([np.zeros((1, pts.shape[1])), pts])
    theta = np.pi * np.arange(4096) / 4096
    proj = pts @ np.stack([np.cos(theta), np.sin(theta)])
    width = proj.max(axis=0) - proj.min(axis=0)
    k = int(np.argmin(width))
    return float(width[k]), float(theta[k])
