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


class LegLengths(NamedTuple):
    """The length part of `leg_chain`: what a line search prices a trial by."""

    total: float        # d.sum()
    v: np.ndarray       # leg vectors, end point minus start point
    d: np.ndarray       # leg lengths, smoothed as in `leg_chain`


def _span(n: int, anchored: bool, closed: bool) -> tuple:
    """Rows first..last of [origin, p_0, ..., p_{n-1}, origin] are the chain."""
    return (0 if anchored else 1), (n + 1 if closed else n)


def leg_lengths(points: np.ndarray, anchored: bool = True, closed: bool = False,
                eps: float = 0.0) -> LegLengths:
    """The leg vectors, leg lengths and total of `leg_chain`, bitwise, without
    the unit vectors and the gradient."""
    P = np.asarray(points, dtype=float)
    n = P.shape[0]
    # slices of the extended rows keep this evaluation as cheap as the
    # L-BFGS loop and the line searches need
    first, last = _span(n, anchored, closed)
    ext = np.zeros((n + 2, P.shape[1]))
    ext[1:n + 1] = P
    v = ext[first + 1:last + 1] - ext[first:last]
    d = np.sqrt(np.add.reduce(v * v, axis=1))   # np.linalg.norm's own reduction
    if eps:
        d = np.hypot(d, eps)
    return LegLengths(float(d.sum()), v, d)


def leg_slopes(lengths: LegLengths, anchored: bool = True, closed: bool = False) -> LegChain:
    """The rest of `leg_chain` from its length part: the unit vectors and the
    gradient, from the same leg vectors and lengths."""
    v, d = lengths.v, lengths.d
    n = d.size + 1 - anchored - closed
    first, last = _span(n, anchored, closed)
    if np.count_nonzero(d > 0.0) == d.size:
        u = v / d[:, None]
    else:
        u = v / np.where(d > 0.0, d, 1.0)[:, None]
        u[d == 0.0] = 0.0
    g = np.zeros((n + 2, v.shape[1]))
    g[first + 1:last + 1] += u
    g[first:last] -= u
    a = np.arange(first - 1, last - 1)
    b = a + 1
    if closed:
        b[-1] = -1
    return LegChain(lengths.total, g[1:n + 1], a, b, d, u)


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
    the polish's iterates depend on these bits.  It is `leg_slopes` of
    `leg_lengths`.
    """
    return leg_slopes(leg_lengths(points, anchored, closed, eps), anchored, closed)


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
