"""Fixed-order continuous minimization of escape polylines.

Pipeline per start: seed each escape point at the nearest point of its
boundary; on products, start 0 picks its branches by one stage of quadratic
penalty and the other starts take their seeds' nearest factors, and a start
whose branches are an earlier start's on affine charts only is skipped.  Then
project exactly and polish in reduced on-boundary coordinates (one parameter
per point on a line/circle/segment, two on a plane).  On products the branch
step follows (`_branch_step`, a shortest path over each row's candidate
points on its factors), re-polished while it changes the branches and
shortens the path; the penalty's start then takes the flipped step (the
shortest candidate path off its branches) while that shortens the path.
When every chart is affine (lines, planes, points) the polish objective is
convex: the polish is damped Newton on the smoothed length, its smoothing
radius cut down to SMOOTH_FLOOR times the length, and the solution carries a
duality gap that bounds how far it is above the minimum.  On other charts
(circles; segments, their step projected into the box) a start's first
polish is the same smoothed Newton from COLD_EPS times the length, and a
warm re-polish one stage of it at the floor radius.
Coincident consecutive points are genuine corners of many optima; such
clusters get pinned to the common point of their boundaries, found to
rounding, so the corner nonsmoothness cannot cap the final accuracy.  A start
ends on that merge's one re-polish, or where its polish left it when nothing
merges.  Every Newton step is a banded Cholesky solve of the exact
block-tridiagonal Hessian, else of its reflected-curvature model.  The best
feasible start wins; ties break to the lexicographically smallest point
sequence so reruns are bitwise stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbsv
from scipy.optimize import OptimizeResult, minimize_scalar
from scipy.optimize._lbfgsb import setulb

from . import geometry as geo
from .path import LegBuffers, Polyline, leg_chain, length
from .scenario import Instance, build_zalgaller


class NonConvergenceError(RuntimeError):
    """No start produced a feasible local minimum; carries the best iterate."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


SMOOTH_FLOOR = 1e-14      # last smoothing radius of a smoothed polish, times the length
COLD_EPS = (1e-1, 1e-3)   # first smoothing radius of start k's curved polish, [k % 2] times L
PENALTY_INIT = 10.0       # weight of start 0's penalty stage
# the branch step's candidates come from the points this many rows either
# side.  On the 72-solve product sweep (three families, N 8-44, multistart
# 1/2/4, seeds 0/1) 2, 8 and 16 rows give the answers of 4 to an ulp; 1 row
# raises perp_lines_product N=12 closed (2.5885 -> 2.6251).  The 2.3467 that
# 16 rows gave perp_lines_product N=32 without the flipped step, it reaches at 4
BRANCH_WINDOW = 4
COINCIDENT = 1e-6         # points closer than this along the path count as one corner
SHORT_LEG = 1e-7          # legs below this times the length get a projected dual vector


@dataclass(frozen=True)
class SolveOptions:
    feas_tol: float = 1e-8
    multistart: int = 16
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.feas_tol < math.inf:
            raise ValueError("the feasibility tolerance must be positive and finite")
        if not _is_int(self.multistart) or self.multistart < 1:
            raise ValueError("the number of starts must be a positive int")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("the seed must be a non-negative int")


def _is_int(x) -> bool:
    """Whether x is a Python or numpy int; a bool is not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Solution:
    polyline: Polyline
    order: tuple
    length: float
    max_residual: float
    converged: bool
    branch_assignment: tuple | None = None
    residuals: tuple = ()
    instance_name: str = ""
    seed: int = 0
    iterations: int = 0
    gap: float | None = None    # see _duality_gap

    def points(self) -> np.ndarray:
        return self.polyline.as_array()


# --------------------------------------------------------------------------
# L-BFGS-B

def minimize(fun, x0, *, maxcor=10, ftol=2.2204460492503131e-09, gtol=1e-5,
             maxiter=15000) -> OptimizeResult:
    """Unbounded L-BFGS-B on fun(x) -> (value, gradient) from x0.

    Drives scipy's `setulb` as `scipy.optimize.minimize(method="L-BFGS-B",
    jac=True)` does: the same workspace, tolerances, line-search limit and
    maxiter stop (but no maxfun stop), and `fun` is called again only when x
    changes.  So x, fun, nit and nfev are bitwise scipy's, without the cost
    of its per-evaluation wrappers.
    """
    x = np.array(x0, dtype=np.float64).ravel()
    n, m = x.size, maxcor
    low, high, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps

    def evaluate(x):
        f, g = fun(x)
        g = np.ascontiguousarray(g, dtype=np.float64)   # setulb reads n doubles from it
        if g.shape != (n,):
            raise ValueError(f"gradient of shape {g.shape} for {n} variables")
        return f, g

    x_eval = x.copy()
    f, g = evaluate(x_eval)
    nfev, nit = 1, 0
    while True:
        # 20: the line-search steps allowed per iteration, scipy's maxls default
        setulb(m, x, low, high, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave,
               20, ln_task)
        if task[0] == 3:            # FG: value and gradient at x
            if not (x == x_eval).all():
                x_eval = x.copy()
                f, g = evaluate(x_eval)
                nfev += 1
        elif task[0] == 1:          # NEW_X: an iteration is done
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
        else:
            return OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev)


# --------------------------------------------------------------------------
# vectorized residual program over an ordered boundary sequence

class _ResidualProgram:
    """The ordered boundary list (products included), packed once: batched
    F / grad-F, nearest points and nearest factors."""

    def __init__(self, boundaries, dim):
        self.boundaries = tuple(boundaries)
        self.n = len(boundaries)
        self.dim = dim
        self.groups = geo.pack_by_shape(boundaries)

    def residuals(self, P: np.ndarray):
        """Returns (F, G) with F shape (n,) and G shape (n, dim)."""
        if len(self.groups) == 1:   # one shape on rows 0..n-1: no gather or scatter
            return self.groups[0][1].residual(P)
        F = np.zeros(self.n)
        G = np.zeros((self.n, self.dim))
        for idx, packed in self.groups:
            F[idx], G[idx] = packed.residual(P[idx])
        return F, G

    def scaled(self, P: np.ndarray) -> np.ndarray:
        F, G = self.residuals(P)
        return np.abs(F) / np.maximum(np.linalg.norm(G, axis=1), geo.GRAD_FLOOR)

    def nearest(self, P: np.ndarray) -> np.ndarray:
        """Closest point of each row's boundary; P is (..., n, dim)."""
        Q = np.empty(np.shape(P))
        for idx, packed in self.groups:
            Q[..., idx, :] = packed.nearest(P[..., idx, :])
        return Q

    def branches(self, P: np.ndarray) -> tuple:
        """Per row, the index of the product factor of least scaled residual (the
        first on a tie); None for a row that is not a product."""
        assign = [None] * self.n
        for idx, packed in self.groups:
            if len(packed.kinds) > 1:
                for h, j in zip(idx.tolist(), packed.nearest_factor(P[idx]).tolist()):
                    assign[h] = j
        return tuple(assign)

    def resolved(self, assign) -> "_ResidualProgram":
        """The program of the list with each product replaced by its assigned factor."""
        bnds = tuple(b.factors[a] if isinstance(b, geo.Product) and a is not None else b
                     for b, a in zip(self.boundaries, assign))
        return _ResidualProgram(bnds, self.dim)


# --------------------------------------------------------------------------
# reduced coordinates for branch-resolved boundaries

def _affine(kind) -> bool:
    """Whether a primitive's chart is an affine map of unbounded coordinates
    (Line, Plane3, PointTarget); on such charts the polish objective, a sum of
    norms of affine functions, is convex."""
    return not kind.curved and kind.bound == (None, None)


class _Jet(NamedTuple):
    """What the Newton step needs of the charts at one iterate.

    Leg r = 0..n runs from row r to row r + 1 of leg_chain's [origin, p_0,
    ..., p_{n-1}, origin]; T[r] (dim, w) are row r's tangents, zero at the
    origin.  `ends[:, r]` are (T[r], T[r + 1]) and `prods[:, r]` the products
    (T[r]^T T[r], T[r + 1]^T T[r + 1], T[r + 1]^T T[r]), which do not depend
    on the legs' directions.  `tangents` are each block's chart tangents (for
    the chain rule) and `curvature` the (rows, d2p/dt2) of each curved
    block."""

    tangents: list
    ends: np.ndarray      # (2, n + 1, dim, w)
    prods: np.ndarray     # (3, n + 1, w, w)
    curvature: list


def _run(idx: np.ndarray):
    """An ascending index array as the slice it equals where it has no gaps."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _products(ends: np.ndarray, prods: np.ndarray):
    """`_Jet.prods` from `_Jet.ends`, written into prods."""
    np.einsum("slxk,slxm->slkm", ends, ends, out=prods[:2])
    np.einsum("lxk,lxm->lkm", ends[1], ends[0], out=prods[2])


def _band_index(n: int, w: int, dead: np.ndarray) -> np.ndarray:
    """Where each entry of the LAPACK lower band (2w, n w) of `_assemble_hessian`
    comes from in its buffer [diag (n, w, w), below (n - 1, w, w), 0, 1]:
    entry (i, j) of slots i >= j is H[i - j, j]; a dead slot's diagonal is the
    1 and an entry outside the matrix the 0.  F-ordered, as dpbsv reads it."""
    D, B = n * w * w, (n - 1) * w * w
    band = np.full((2 * w, n * w), D + B, order="F")
    i = np.arange(n)
    for k in range(w):
        for m in range(w):
            if k >= m:
                band[k - m, m::w] = (i * w + k) * w + m
            band[w + k - m, m::w][:n - 1] = D + (i[:-1] * w + k) * w + m
    if w:   # no slots at all when every point is fixed
        band[0, dead] = D + B + 1
    return band


class _LegBlocks:
    """`_assemble_hessian`'s per-leg arrays for the legs first..last of a
    chain of n points with w slots each: (Ta.u, Tb.u) and the (aa, bb, ba)
    blocks of leg r = 0..n (from row r to row r + 1 of leg_chain's [origin,
    p_0, ..., origin]); the blocks of legs outside the chain stay 0.  `aa`
    and `bb` are the blocks of the legs leaving and reaching each point, `ba`
    those of the legs between points i and i + 1."""

    def __init__(self, n: int, w: int, first: int, last: int):
        self.uab = np.empty((2, last - first, w))
        h = np.zeros((3, n + 1, w, w))
        self.h = h[:, first:last]
        # the operands and output of the products (Ta.u)_k (Ta.u)_m and
        # (Tb.u)_k (Tb.u)_m, and of (Tb.u)_k (Ta.u)_m
        self.x = (self.uab[:, :, :, None], self.uab[:, :, None, :], self.h[:2])
        self.x_ba = (self.uab[1, :, :, None], self.uab[0, :, None, :], self.h[2])
        self.aa, self.bb, self.ba = h[0, 1:], h[1, :n], h[2, 1:n]


class _Reduced:
    """One low-dimensional parameter block per point, exactly on its boundary.

    Blocks of the same primitive kind are batched so the coordinate map and its
    chain rule are single numpy expressions per kind: each block is (kind's
    record, packed parameters, point rows, variable columns of shape (m, ndof)).
    The Hessian gives every point `width` slots in path order, the widest
    chart's dof count: variable j sits in slot `slots[j]`, point i's k-th
    coordinate in slot i * width + k, and `dead` marks the slots of no variable;
    `packed` says that variable j sits in slot j, so no slot is dead.

    The `_Jet` lives in arrays built here.  Charts with constant tangents (all
    but circles) write their part once, so on affine charts the whole jet,
    tangent products included, is built once per polish; `jet` overwrites a
    curved chart's part once per Newton iterate, from the frame its points
    came from.  `_assemble_hessian` forms its blocks in arrays kept here too,
    and gathers its band from them.
    """

    def __init__(self, program: _ResidualProgram):
        self.dim = program.dim
        self.n = n = program.n
        self.nvar = 0
        self.blocks = []
        self._tcols = []   # each block's variables, a slice of t
        for rows, packed in program.groups:
            if len(packed.kinds) > 1:
                raise TypeError("cannot reduce a product; resolve branches first")
            kind = packed.kinds[0]
            cols = self.nvar + np.arange(len(rows) * kind.ndof).reshape(len(rows), kind.ndof)
            self._tcols.append(slice(self.nvar, self.nvar + cols.size))
            self.nvar += cols.size
            self.blocks.append((kind, packed.prms[0], rows, cols))
        self.affine = all(_affine(kind) for kind, *_ in self.blocks)
        self.boxed = any(kind.bound != (None, None) for kind, *_ in self.blocks)
        if self.boxed:   # each variable's box, for the projected step; only segments have one
            self.lo, self.hi = np.full((2, self.nvar), [[-np.inf], [np.inf]])
            for kind, _, _, cols in self.blocks:
                if kind.bound != (None, None):
                    self.lo[cols], self.hi[cols] = kind.bound
        self.width = w = max(kind.ndof for kind, *_ in self.blocks)
        self.slots = np.zeros(self.nvar, dtype=int)
        for kind, _, rows, cols in self.blocks:
            self.slots[cols] = rows[:, None] * w + np.arange(kind.ndof)
        self.dead = np.ones(n * w, dtype=bool)
        self.dead[self.slots] = False
        self.packed = np.array_equal(self.slots, np.arange(n * w))
        self.curved = [i for i, (kind, *_) in enumerate(self.blocks) if kind.curved]
        # each block's rows of the points and of leg_chain's [origin, p_0, ...,
        # origin], as slices where they are consecutive
        self._rows = [(_run(rows), _run(rows + 1)) for _, _, rows, _ in self.blocks]
        ends = np.zeros((2, n + 1, self.dim, w))
        tangents, curvature = [], []
        for (kind, prm, rows, cols), (rsl, esl) in zip(self.blocks, self._rows):
            if not kind.curved:
                tangents.append(kind.chart_jet(prm, None)[0])
            else:   # written by `jet`
                tangents.append(tuple(np.zeros((len(rows), self.dim)) for _ in range(kind.ndof)))
                curvature.append((rsl, np.zeros((len(rows), self.dim))))
            for k, e in enumerate(tangents[-1]):
                ends[0, esl, :, k] = e
                ends[1, rsl, :, k] = e
        self._jet = _Jet(tangents, ends, np.empty((3, n + 1, w, w)), curvature)
        _products(ends, self._jet.prods)
        self._legs = {}   # (first, last) -> _LegBlocks of that chain
        # the Hessian's blocks by point, each written in full by every
        # assembly, from which `_band_index` gathers the band
        self._hbuf = np.zeros(n * w * w + max(n - 1, 0) * w * w + 2)
        self._hbuf[-1] = 1.0
        self._diag = self._hbuf[:n * w * w].reshape(n, w, w)
        self._below = self._hbuf[n * w * w:-2].reshape(max(n - 1, 0), w, w)
        self._curv = np.zeros(n)   # each point's curvature term g . c, as last assembled
        self._band = _band_index(n, w, self.dead)

    def init_vars(self, P: np.ndarray) -> np.ndarray:
        t = np.zeros(self.nvar)
        for kind, prm, rows, cols in self.blocks:
            t[cols] = kind.chart_init(prm, P[rows])
        return t

    def evaluate(self, t: np.ndarray):
        """The points at t and each block's chart frame (see `geo.Primitive`)."""
        if len(self.blocks) == 1:   # one kind on every row, as in every circle family
            kind, prm, _, cols = self.blocks[0]
            P, frame = kind.chart_eval(prm, t.reshape(cols.shape))
            return P, [frame]
        P = np.zeros((self.n, self.dim))
        return P, _chart_points(self.charts(t, P), P)

    def charts(self, t: np.ndarray, P: np.ndarray) -> list:
        """Per block, what `_chart_points` evaluates its chart by: (kind,
        packed parameters, its variables as an (m, ndof) view of t, its rows
        of P as a view where they are consecutive, else None, and its rows)."""
        return [(kind, prm, t[tcols].reshape(cols.shape),
                 P[rows] if isinstance(rows, slice) else None, rows)
                for (kind, prm, _, cols), (rows, _), tcols in zip(self.blocks, self._rows,
                                                                   self._tcols)]

    def points(self, t: np.ndarray) -> np.ndarray:
        return self.evaluate(t)[0]

    def jet(self, t: np.ndarray, frames=None) -> _Jet:
        """The `_Jet` at t, in this `_Reduced`'s arrays (a later call on a
        curved chart overwrites them): each curved block's tangents and
        curvature come from its frame (`frames` from `evaluate(t)`, or
        evaluated here)."""
        jet = self._jet
        if not self.curved:
            return jet
        frames = frames or self.evaluate(t)[1]
        for i, (_, c) in zip(self.curved, jet.curvature):
            kind, prm, _, _ = self.blocks[i]
            rows, ext = self._rows[i]
            kind.chart_jet(prm, frames[i], out=(*jet.tangents[i], c))
            for k, e in enumerate(jet.tangents[i]):
                jet.ends[0, ext, :, k] = e
                jet.ends[1, rows, :, k] = e
        _products(jet.ends, jet.prods)
        return jet

    def push(self, t: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Per-point displacement of a reduced step z (the transpose of `chain`)."""
        D = np.zeros((self.n, self.dim))
        for (_, _, rows, cols), tangents in zip(self.blocks, self.jet(t).tangents):
            for k, e in enumerate(tangents):
                D[rows] += z[cols[:, k], None] * e
        return D

    def chain(self, t: np.ndarray, Gp: np.ndarray, tangents=None) -> np.ndarray:
        """Pull a per-point gradient back to the reduced variables through the
        blocks' tangents at t (`jet(t).tangents`, evaluated here unless given)."""
        if tangents is None:
            tangents = self.jet(t).tangents
        g = np.empty(self.nvar)
        _pull(self.pulls(tangents, g), Gp)
        return g

    def pulls(self, tangents, g: np.ndarray) -> list:
        """Per block and coordinate, what `_pull` writes its part of g by:
        (the block's rows, the coordinate's tangents, its entries of g)."""
        return [(rows, e, g[tcols][k::kind.ndof])
                for (kind, *_), (rows, _), tcols, tan in zip(self.blocks, self._rows,
                                                             self._tcols, tangents)
                for k, e in enumerate(tan)]


def _chart_points(charts, P: np.ndarray) -> list:
    """Each block's points written into P by its chart, and its frame; a
    block given as None (a fixed one) is left as it is."""
    frames = []
    for chart in charts:
        if chart is None:
            frames.append(None)
            continue
        kind, prm, T, view, rows = chart
        if view is None:
            P[rows], frame = kind.chart_eval(prm, T)
        else:
            frame = kind.chart_eval(prm, T, view)[1]
        frames.append(frame)
    return frames


def _pull(pulls, Gp: np.ndarray):
    """The chain rule: each variable's gradient entry is its point's row of Gp
    dotted with its tangent (see `_Reduced.pulls`)."""
    for rows, e, g in pulls:
        np.einsum("ij,ij->i", Gp[rows], e, out=g)


# --------------------------------------------------------------------------
# seeding, branch resolution, polish

def _build_seeds(inst: Instance, ordered, program: _ResidualProgram, opts: SolveOptions,
                 initial_points):
    """Seed matrix per start: (multistart, K, dim)."""
    K, dim = program.n, program.dim
    rng = np.random.default_rng(opts.seed)
    noise = rng.normal(size=(opts.multistart, K, dim))
    if initial_points is not None:
        base = np.asarray(initial_points, dtype=float)
        if base.shape != (K, dim) or not np.isfinite(base).all():
            raise ValueError(f"initial_points must be finite, of shape ({K}, {dim})")
    elif inst.seed_points is not None:
        base = np.array([inst.seed_points[h] for h in ordered.indices], dtype=float)
    else:
        # nearest boundary point seen from the anchor: covariant under rigid
        # motions and scaling of the whole scenario, and it starts every point
        # on the near side the optima hug
        base = program.nearest(np.zeros((K, dim)))
    mag = 0.1 * np.arange(opts.multistart) / opts.multistart
    return program.nearest(base + mag[:, None, None] * noise)


class _Ordered:
    """Boundaries of an instance rearranged into visiting order."""

    def __init__(self, inst: Instance, order):
        perm = tuple(getattr(order, "perm", order))
        if sorted(perm) != list(range(inst.size)):
            raise ValueError("order is not a permutation of the boundary indices")
        self.indices = perm
        self.boundaries = tuple(inst.boundaries[h] for h in perm)


def _polish(program: _ResidualProgram, P0, anchored, closed, eps0: float = SMOOTH_FLOOR):
    """Points on the program's boundaries from P0, and their length, by the
    smoothed Newton (projected on segment boxes).  Its radius starts at the
    mean leg length on affine charts and at `eps0` times the length on the
    others: a start's first polish, and its polish after each branch step,
    pass its entry of COLD_EPS, and the warm re-polish after its kink merge,
    which starts next to its minimum and is the start's last polish, keeps
    the default of one stage at the floor radius.
    """
    red = _Reduced(program)
    t = red.init_vars(P0)
    if red.nvar:
        t = _smoothed_newton(red, t, anchored, closed, None if red.affine else eps0)
    P = red.points(t)
    return P, leg_chain(P, anchored, closed).total


class _Iterate:
    """A Newton iterate, computed in place: t, the legs of its points
    (`path.LegBuffers`) and the curved charts' frames, with the views that
    write its points and pull its gradient back to g."""

    def __init__(self, red: _Reduced, t, P, anchored: bool, closed: bool, g, tangents):
        self.t = t.copy()
        self.legs = LegBuffers(red.n, red.dim, anchored, closed)
        self.legs.points[...] = P   # the rows of fixed blocks stay so
        self.frames = None
        self._charts = [c if c[0].ndof else None for c in red.charts(self.t, self.legs.points)]
        self._pulls = red.pulls(tangents, g)

    def evaluate(self):
        self.frames = _chart_points(self._charts, self.legs.points)

    def gradient(self):
        """The unit vectors, the gradient rows and the gradient g at t."""
        self.legs.slope()
        _pull(self._pulls, self.legs.grad)


def _smoothed_newton(red: _Reduced, t: np.ndarray, anchored: bool, closed: bool,
                     eps0: float | None = None) -> np.ndarray:
    """Minimize the length by smoothed continuation.

    Damped Newton on sum_l sqrt(d_l^2 + eps^2), which is smooth and, on affine
    charts, convex, so every start reaches its one minimum.  eps starts at
    `eps0` times the length (default: the mean leg length) and is cut tenfold
    per stage down to SMOOTH_FLOOR times the length; a stage stops when the
    Newton decrement no longer exceeds 1e-3 eps or no Armijo step is found.
    On affine charts the last stage is the whole polish: no exact-length
    Newton follows, since `_duality_gap` finds the result within about 1e-13
    of the length of the minimum.  The step is `_newton_step`'s: the exact H,
    else its positive semidefinite model; where neither descends the stage
    ends.  A chain without legs, or of zero or non-finite length, is
    returned unchanged.

    On a boxed `_Reduced` the step is projected Newton (Bertsekas, SIAM J.
    Control Optim. 1982): a variable at a bound whose gradient points out is
    held (a unit slot in H, as a dead one, and 0 on the right; the polish
    ends when all are), each trial is clipped into the box, and Armijo takes
    the decrease g . (t - trial) predicted along that projected arc.

    Each quantity is computed where it changes, in place, into arrays made
    once per polish: the jet's and the Hessian's per-leg blocks in `_Reduced`,
    the rest here: the gradient g and two `_Iterate`s, which a trial and the
    accepted iterate swap.  Once per polish: the constant charts' tangents,
    on affine charts their products, and (packed with the boundaries) the
    hyperplanes' chart origins.  Once per accepted iterate: the curved
    charts' tangents, curvature and products, from the frame the iterate's
    points came from (`_Reduced.jet`); the unit vectors and the gradient
    rows from the leg vectors the trial priced (`path.LegBuffers.slope`,
    which looks for no zero leg: every smoothed d is positive); the gradient
    and the Hessian, a new band.  Once per trial: the points, the leg
    vectors, the smoothed lengths and their total
    (`path.LegBuffers.price`), and nothing else.
    """
    P, frames = red.evaluate(t)
    g = np.empty(red.nvar)
    jet = red.jet(t, frames)
    cur = _Iterate(red, t, P, anchored, closed, g, jet.tangents)
    total = cur.legs.price()
    if not 0.0 < total < math.inf:
        return t
    cur.frames = frames
    spare = _Iterate(red, t, P, anchored, closed, g, jet.tangents)
    eps = total / cur.legs.d.size if eps0 is None else eps0 * total
    floor = SMOOTH_FLOOR * total
    while eps >= floor:
        cur.legs.price(eps)
        for _ in range(50):
            cur.gradient()
            legs = cur.legs.chain()
            H = _assemble_hessian(red, legs, jet)
            scale = np.abs(H[0] if red.packed else H[0, red.slots]).max()
            rhs = -g
            if red.boxed:
                active = ((cur.t <= red.lo) & (g > 0.0)) | ((cur.t >= red.hi) & (g < 0.0))
                if active.all():
                    return cur.t
                held = red.slots[active]   # a unit slot with no couplings, as a dead one
                for k in range(1, H.shape[0]):
                    H[k, held[held >= k] - k] = 0.0
                H[1:, held], H[0, held], rhs[active] = 0.0, 1.0, 0.0
            step = _newton_step(red, H, rhs, scale, g)
            if step is None or not (decrement := -float(g @ step)) > 1e-3 * eps:
                break
            alpha = 1.0
            while alpha > 1e-6:
                np.add(cur.t, alpha * step, out=spare.t)
                drop = alpha * decrement   # the predicted decrease
                if red.boxed:   # along the projected arc
                    np.clip(spare.t, red.lo, red.hi, out=spare.t)
                    drop = float(g @ (cur.t - spare.t))
                spare.evaluate()
                if drop > 0.0 and spare.legs.price(eps) <= legs.total - 1e-4 * drop:
                    break
                alpha *= 0.5
            else:
                break
            cur, spare = spare, cur
            jet = red.jet(cur.t, cur.frames)
        eps /= 10.0
    return cur.t


def _newton_step(red: _Reduced, H, rhs, scale: float, g=None):
    """The step of the exact H, else of the model H + diag(|g.c| - g.c) +
    1e-12 scale I (scale: H's largest diagonal entry); None where neither
    solves or, given the gradient g, descends.  Only a curved point's term g.c
    can make H indefinite, so the model is positive semidefinite (Nocedal &
    Wright, 2006, Sec. 3.4); the shift covers an H singular to rounding."""
    for shift in (None, 1e-12 * scale):
        step = _banded_solve(red, H, rhs, shift)
        if step is not None and (g is None or g @ step < 0.0):
            return step
    return None


def _banded_solve(red: _Reduced, H, rhs, shift: float | None = None):
    """x with A x = rhs by banded Cholesky, A being H (symmetric, in
    `_assemble_hessian`'s band storage) or, given a shift, `_newton_step`'s
    model; None unless A factors and x is finite, with no factorization where
    a diagonal entry is <= 0 (its column's pivot would be that entry minus a
    sum of squares).  H and rhs are left as they are; a packed `_Reduced`
    takes rhs as it stands, with no scatter or gather by slot."""
    if shift is None:   # dpbsv copies H
        A = H
    else:   # a point's curvature term is in its first slot, and 0 off a curved chart
        A = H.copy(order="F")
        A[0, ::red.width] += np.abs(red._curv) - red._curv
        A[0] += shift
    if A[0].min() <= 0.0:
        return None
    if red.packed:
        b = rhs
    else:
        b = np.zeros(H.shape[1])
        b[red.slots] = rhs
    _, x, info = dpbsv(A, b, lower=1, overwrite_ab=A is not H)
    if info != 0 or not np.isfinite(x).all():
        return None
    return x if red.packed else x[red.slots]


def _assemble_hessian(red: _Reduced, legs, jet: _Jet) -> np.ndarray:
    """Exact Hessian of the reduced objective in LAPACK lower band storage.

    A leg joins two consecutive points or a point and the fixed origin, so in
    the slot order of `_Reduced` the Hessian is block tridiagonal with blocks
    of width w = `red.width`: entry (i, j) of slots i >= j is H[i - j, j], for
    i - j < 2w.  A dead slot gets a unit diagonal and no couplings.  The band
    is a new array, F-ordered as dpbsv reads it.

    A leg of length d and unit vector u from point a to point b adds
    (Da_k.Db_l - (Da_k.u)(Db_l.u)) / d to entry (a_k, b_l), where Da_k is the
    tangent of a's k-th coordinate; the aa and bb blocks take the same form,
    the ab and ba blocks the opposite sign.  A smoothed chain (d the smoothed
    length, u = v / d) gives the Hessian of the smoothed objective; every d
    must be positive (see below).  The chart curvature adds the diagonal
    terms Gp . d2p/dt2, which `red` keeps for the model of `_banded_solve`.

    The tangents, the curvature and the products Da_k.Db_l come from `jet`
    (`_Reduced.jet` at the iterate), so only the terms in u and d are formed
    here, leg by leg, in arrays `red` keeps for the chain (`_LegBlocks`).
    Each point's diagonal block and each block below is then written whole
    into `red`'s block buffer, and one gather by `_band_index` makes the band
    (cheaper than writing each entry (k, m) to its band row by a slice, the
    more so at w = 2).  Every d is positive: the smoothed stages smooth it,
    and `_duality_gap` floors a short leg's at 1e-12 times the length.
    The diagonal blocks start at +0 and take the aa term of the leg leaving
    the point, then the bb term of the leg reaching it (a leg off the chain
    gives a +0 term), by adds, which turn a -0 term into +0, so the band's
    diagonal holds no -0: adding a +0 term, as the model of `_banded_solve`
    does on each uncurved row, changes no bit.
    """
    first = int(legs.a[0]) + 1 if legs.d.size else 0   # leg_chain's first leg is _Jet's leg `first`
    last = first + legs.d.size
    blocks = red._legs.get((first, last))
    if blocks is None:
        blocks = red._legs[first, last] = _LegBlocks(red.n, red.width, first, last)
    np.einsum("slxk,lx->slk", jet.ends[:, first:last], legs.u, out=blocks.uab)   # (Ta.u, Tb.u)
    # the aa, bb and ba blocks leg by leg
    h = blocks.h
    np.multiply(*blocks.x)
    np.multiply(*blocks.x_ba)
    np.subtract(jet.prods[:, first:last], h, out=h)
    np.divide(h, legs.d[:, None, None], out=h)
    diag = red._diag   # each point's block: +0, the aa term, the bb term, the curvature
    np.add(0.0, blocks.aa, out=diag)
    np.add(diag, blocks.bb, out=diag)
    for rows, c in jet.curvature:
        red._curv[rows] = curv = np.einsum("ij,ij->i", legs.grad[rows], c)
        diag[rows, 0, 0] += curv
    np.negative(blocks.ba, out=red._below)
    return red._hbuf[red._band]


def _duality_gap(program: _ResidualProgram, P, anchored, closed) -> float | None:
    """Certified bound on how far the length at P is above the minimum of the
    program's fixed-order problem; None unless every chart is affine.

    On affine charts the length is sum_l |v_l(t)| with v_l(t) = A_l t + b_l the
    leg vectors, and every y with sum_l A_l^T y_l = 0 and |y_l| <= 1 is
    feasible for the dual max sum_l b_l . y_l (Andersen, Christiansen, Conn &
    Overton, SIAM J. Sci. Comput. 2000), so L - L* <= sum_l |v_l| - y_l . v_l.

    Long legs start at y_l = u_l, and legs shorter than SHORT_LEG times the
    length at 0.  A correction y_l += W_l A_l z then solves A^T y = 0, with
    W_l = (I - u_l u_l^T) / d_l on a long leg (its exact-length Hessian, so
    y_l moves along its sphere) and W_l = I / (1e-12 L) on a short one, which
    so takes up nearly all of it.  A short leg that leaves its ball is put
    back on its sphere, moves along it only from then on, and the correction
    is solved again.  Last, y is scaled into the balls, which keeps
    A^T y = 0.  With no variables or no length the bound is 0.
    """
    if not any(b.ndof for b in program.boundaries):
        return 0.0
    if not all(_affine(b) for b in program.boundaries):
        return None
    red = _Reduced(program)
    t = red.init_vars(P)
    # maps per-point arrays to per-leg ones (`price`'s leg vectors v) and back
    # (`gradient`, with u set to per-leg y, gives each point's y_in - y_out)
    legs = LegBuffers(red.n, red.dim, anchored, closed)
    legs.points[...] = red.points(t)
    total = legs.price()
    if total == 0.0:
        return 0.0
    v, norms = legs.v.copy(), legs.d.copy()
    short = norms <= SHORT_LEG * total
    u = np.where(short[:, None], 0.0, v / np.where(short, 1.0, norms)[:, None])
    y = u.copy()
    d = np.where(short, 1e-12 * total, norms)   # W_l = (I - u_l u_l^T) / d_l
    chain = legs.chain()._replace(d=d, u=u)   # u changes in place below
    jet = red.jet(t)

    over = np.zeros_like(short)
    for _ in range(8):
        # a short leg outside its ball is put back on the sphere, and from
        # then on it moves along the sphere only
        y[over] /= np.linalg.norm(y[over], axis=1)[:, None]
        u[over] = y[over]
        H = _assemble_hessian(red, chain, jet)
        for _ in range(2):   # once more for the rounding of the solve
            legs.u[...] = y
            legs.gradient()
            rhs = -red.chain(t, legs.grad, jet.tangents)
            z = _newton_step(red, H, rhs, H[0, red.slots].max())
            if z is None:
                return None
            legs.points[...] = red.push(t, z)
            legs.price()
            y = y + (legs.v - u * np.einsum("lx,lx->l", u, legs.v)[:, None]) / d[:, None]
        # a few ulps over is the rounding of the normalization; scaling takes it
        over = short & (np.linalg.norm(y, axis=1) > 1.0 + 4 * np.finfo(float).eps)
        if not over.any():
            break
    y /= max(1.0, float(np.linalg.norm(y, axis=1).max(initial=0.0)))
    return float(np.sum(norms - np.einsum("lx,lx->l", y, v)))


def _common_point(boundaries, p0, tol=1e-13, iters=60):
    """Gauss-Newton for a point on every listed boundary, started at p0.

    Rounding in the float64 residuals stops the iteration some ulps from a
    crossing at a small angle (up to 1.4e-15 on circle_interior_02 N=30).
    Where a boundary is curved, one last step with the residuals in long
    double puts the point at the crossing to rounding (where long double is
    float64, it is one more float64 step).  Crossings of flat boundaries keep
    the float64 point, so the convex answers and their time stay as they
    were."""
    p = np.asarray(p0, dtype=float).copy()
    program = _ResidualProgram(boundaries, len(p))

    def step(R, J):
        JtJ = J.T @ J
        if np.linalg.det(JtJ) < 1e-18:
            JtJ = JtJ + 1e-12 * np.eye(len(p))
        try:
            return np.linalg.solve(JtJ, J.T @ R)
        except np.linalg.LinAlgError:   # the absolute ridge is lost to rounding at large scales
            return np.linalg.lstsq(J, R, rcond=None)[0]

    for _ in range(iters):
        s = step(*program.residuals(np.tile(p, (len(boundaries), 1))))
        p = p - s
        if np.linalg.norm(s) < tol:
            break
    if program.scaled(np.tile(p, (len(boundaries), 1))).max() > 1e-10:
        return None
    if not any(b.curved for b in boundaries):
        return p
    q = p.astype(np.longdouble)
    R = np.concatenate([packed.residual(np.tile(q, (len(idx), 1)), np.longdouble)[0]
                        for idx, packed in program.groups])
    J = np.concatenate([packed.residual(np.tile(p, (len(idx), 1)))[1]
                        for idx, packed in program.groups])
    return (q - step(R.astype(float), J)).astype(float)


def _merge_kinks(program: _ResidualProgram, P, anchored, closed):
    """Pin clusters of coincident consecutive points to the exact common point
    of their boundaries and re-polish once; removes the corner nonsmoothness
    that otherwise caps the achievable precision.  Returns the program of the
    pinned boundaries and the points."""
    if P.shape[1] != 2:
        return program, P
    bnds = list(program.boundaries)
    runs = _coincident_runs(P)
    merged_any = False
    # a first/last point sitting on the anchor is the same kind of corner
    ends = ([0] if anchored else []) + ([len(P) - 1] if closed else [])
    for e in ends:
        if (np.linalg.norm(P[e]) < COINCIDENT
                and not isinstance(bnds[e], geo.PointTarget)
                and geo.scaled_residual(bnds[e], np.zeros(2)) < 1e-8):
            q = geo.project(bnds[e], np.zeros(2))
            bnds[e] = geo.PointTarget(tuple(q))
            P[e] = q
            merged_any = True
    for run in runs:
        group = [bnds[r] for r in run]
        if all(isinstance(b, geo.PointTarget) for b in group):
            continue
        q = _common_point(group, P[run].mean(axis=0))
        if q is None:
            continue
        for r in run:
            bnds[r] = geo.PointTarget(tuple(q))
            P[r] = q
        merged_any = True
    if not merged_any:
        return program, P
    program = _ResidualProgram(bnds, 2)
    return program, _polish(program, P, anchored, closed)[0]


def _coincident_runs(P) -> list:
    """Index arrays of the runs of more than one consecutive point joined by
    legs shorter than COINCIDENT; a NaN leg ends a run."""
    tiny = np.flatnonzero(np.linalg.norm(np.diff(P, axis=0), axis=1) < COINCIDENT)
    legs = np.split(tiny, np.flatnonzero(np.diff(tiny) != 1) + 1)
    return [np.arange(run[0], run[-1] + 2) for run in legs if run.size]


def _penalty_phase(program: _ResidualProgram, P0, anchored, closed):
    """One L-BFGS-B stage of a quadratic penalty on raw coordinates, at weight
    PENALTY_INIT, whose points' nearest factors pick each product's branch;
    the exact projection, the polish of the chosen branches and the branch
    steps do the rest."""
    scale = np.maximum(np.linalg.norm(program.residuals(P0)[1], axis=1), geo.GRAD_FLOOR)
    w = PENALTY_INIT / scale**2

    def obj(x):
        Q = x.reshape(P0.shape)
        legs = leg_chain(Q, anchored, closed)
        F, Gf = program.residuals(Q)
        pen = float(np.sum(w * F * F))
        Gp = legs.grad + (2.0 * w * F)[:, None] * Gf
        return legs.total + pen, Gp.ravel()

    res = minimize(obj, P0.ravel(), maxiter=250, ftol=1e-14, gtol=1e-10, maxcor=20)
    return res.x.reshape(P0.shape)


def _branch_step(program: _ResidualProgram, P, anchored, closed, flip=None):
    """The shortest path with one point per row from a few candidates: the
    "cluster optimization" of generalized TSP (Karapetyan & Gutin, EJOR 2012)
    for the product factors at this order.

    Row i's candidates are the projections onto each factor of its boundary of
    the origin and of the points at rows i - BRANCH_WINDOW .. i +
    BRANCH_WINDOW (clipped to the path).  Row i's own point projected onto
    its own factor is one of them, so the current path is in the search and
    the path returned is at most as long, up to rounding.  A layered DP over
    the rows picks the candidates, with the anchor leg when anchored and the
    closing leg when closed.  Returns each product row's factor (None on
    other rows) and the chosen points.

    Given `flip`, the current factor of each product row, the path returned
    is instead the flipped path: the shortest candidate path that puts some
    product row on a factor other than its `flip` entry.  A backward DP
    beside the forward one gives the shortest path through each candidate,
    the sum of the two costs there; the flipped path is the shortest of
    those through an off-factor candidate, rebuilt from both DPs' pointers."""
    n, dim = program.n, program.dim
    rows = np.clip(np.arange(n)[:, None] + np.arange(-BRANCH_WINDOW, BRANCH_WINDOW + 1), 0, n - 1)
    src = np.concatenate([np.zeros((1, n, dim)), P[rows.T]])   # (sources, n, dim)
    F = max(len(packed.kinds) for _, packed in program.groups)
    C = np.empty((n, F, len(src), dim))
    factor = np.empty((n, F), dtype=int)
    for idx, packed in program.groups:
        f = len(packed.kinds)
        for j, (kind, prm) in enumerate(zip(packed.kinds, packed.prms)):
            C[idx, j] = kind.nearest(prm, src[:, idx]).swapaxes(0, 1)
        # a row with fewer factors repeats its last one, which changes no minimum
        C[idx, f:] = C[idx, f - 1:f]
        factor[idx] = np.minimum(np.arange(F), f - 1)
    C = C.reshape(n, -1, dim)   # (rows, candidates), factor-major
    factor = np.repeat(factor, len(src), axis=1)
    D = np.linalg.norm(C[1:, None, :, :] - C[:-1, :, None, :], axis=-1)   # (n - 1, from, to)
    cols = np.arange(C.shape[1])
    fwd = np.empty((n, C.shape[1]))   # the shortest path from the first row to each candidate
    fwd[0] = np.linalg.norm(C[0], axis=1) if anchored else 0.0
    back = np.empty((n, C.shape[1]), dtype=int)
    for i in range(n - 1):
        total = fwd[i, :, None] + D[i]
        back[i + 1] = total.argmin(axis=0)
        fwd[i + 1] = total[back[i + 1], cols]
    pick = np.empty(n, dtype=int)
    if flip is None:
        last = n - 1
        pick[-1] = (fwd[-1] + np.linalg.norm(C[-1], axis=1) if closed else fwd[-1]).argmin()
    else:
        bwd = np.empty_like(fwd)   # the shortest path from each candidate to the last row
        bwd[-1] = np.linalg.norm(C[-1], axis=1) if closed else 0.0
        ahead = np.empty_like(back)
        for i in range(n - 2, -1, -1):
            total = D[i] + bwd[i + 1]
            ahead[i] = total.argmin(axis=1)
            bwd[i] = total[cols, ahead[i]]
        # a plain row's candidates all have factor 0, so it is never off
        current = np.array([0 if a is None else a for a in flip])
        through = np.where(factor != current[:, None], fwd + bwd, np.inf)
        last, c = np.unravel_index(through.argmin(), through.shape)
        pick[last] = c
        for i in range(last, n - 1):
            pick[i + 1] = ahead[i, pick[i]]
    for i in range(last, 0, -1):
        pick[i - 1] = back[i, pick[i]]
    chosen = factor[np.arange(n), pick].tolist()
    assign = tuple(j if isinstance(b, geo.Product) else None
                   for j, b in zip(chosen, program.boundaries))
    return assign, C[np.arange(n), pick]


def solve_fixed_order(inst: Instance, order, opts: SolveOptions | None = None, *,
                      branch_assignment=None, initial_points=None) -> Solution:
    """Best-of-multistart local minimum with every point on its assigned boundary.

    `branch_assignment` (a factor index per product; other entries are
    ignored) and `initial_points` (the seeds' base) are indexed by visiting
    position: entry i is for the i-th boundary of `order`.

    When every boundary is a PointTarget nothing can move, so the solution is
    built from the points themselves: no seeds, starts or polish, gap 0.
    """
    opts = opts or SolveOptions()
    ordered = _Ordered(inst, order)
    if branch_assignment is not None and (len(branch_assignment) != inst.size or not all(
            _is_int(a) and 0 <= a < len(b.factors)
            for a, b in zip(branch_assignment, ordered.boundaries) if isinstance(b, geo.Product))):
        raise ValueError(f"branch_assignment needs {inst.size} entries, a factor index per product")
    perm = ordered.indices
    program = _ResidualProgram(ordered.boundaries, inst.dimension)
    has_products = any(isinstance(b, geo.Product) for b in ordered.boundaries)
    given = program.resolved(branch_assignment) if branch_assignment else program

    def record(P, L, assign, target):
        resid = float(program.scaled(P).max())
        feasible = resid <= opts.feas_tol and np.all(np.isfinite(P))
        return P, L, resid, feasible, assign, target

    firsts = set()   # the first branches of the starts so far, when none are given

    def run_start(k: int):
        P = seeds[k]
        assign, target = branch_assignment, given
        free = has_products and assign is None
        # start 0 picks its first branches by one penalty stage, which reaches
        # assignments the branch step alone stops short of (perp_lines_product
        # N=8); the others take their seeds' nearest factors
        penalty = free and k == 0 and inst.seed_points is None and initial_points is None
        if branch_assignment is None:
            if penalty:
                P = _penalty_phase(program, P, inst.anchored, inst.closed)
            assign = program.branches(P)   # all None without products
            target = program.resolved(assign) if free else program
            # on affine charts the polish is convex, so a start on the first
            # branches of an earlier start repeats it
            if assign in firsts and all(_affine(b) for b in target.boundaries):
                return None
            firsts.add(assign)
        # the starts alternate between the radii: each alone sends some
        # starts to worse minima
        eps0 = COLD_EPS[k % 2]
        P, L = _polish(target, target.nearest(P), inst.anchored, inst.closed, eps0)
        flipping = False
        while free:
            # the branch step: the shortest path over the factors' candidates,
            # kept while it changes the branches and the polish shortens the
            # path.  Then, on the penalty's start, the flipped step: the
            # shortest candidate path off the current branches, kept while
            # the polish shortens the path (without it the one penalty stage
            # leaves perp_lines_product N=32 closed at 3.013295, not 2.974046)
            new_assign, Q = _branch_step(program, P, inst.anchored, inst.closed,
                                         assign if flipping else None)
            if new_assign != assign:
                new_target = program.resolved(new_assign)
                Q, L_Q = _polish(new_target, Q, inst.anchored, inst.closed, eps0)
                if L_Q < L - 1e-12:
                    P, L, assign, target = Q, L_Q, new_assign, new_target
                    continue
            if flipping or not penalty:
                break
            flipping = True
        if any(b.ndof for b in target.boundaries):  # points alone have nothing to merge
            P_pre, L_pre = P, L
            P = _merge_kinks(target, P.copy(), inst.anchored, inst.closed)[1]
            L = leg_chain(P, inst.anchored, inst.closed).total
            if L > L_pre + 1e-12:  # a merge guessed wrong; keep the unmerged result
                P, L = P_pre, L_pre
        return record(P, L, assign, target)

    if all(isinstance(b, geo.PointTarget) for b in ordered.boundaries):
        # no variables: the projected points are the solution, with no seeds
        # or polish
        best = record(program.nearest(np.zeros((inst.size, inst.dimension))), None,
                      branch_assignment, given)
    else:
        seeds = _build_seeds(inst, ordered, program, opts, initial_points)
        best_key = None
        for k in range(opts.multistart):  # ordered reduction by start index
            result = run_start(k)
            if result is None:
                continue
            P, L, resid, feasible, assign, target = result
            key = (not feasible, round(L, 12), tuple(np.round(P.ravel(), 12)))
            if best_key is None or key < best_key:
                best_key = key
                best = (P, L, resid, feasible, assign, target)

    P, _, resid, feasible, assign, target = best
    per_point = tuple(float(r) for r in program.scaled(P))
    poly = Polyline(tuple(map(tuple, P)), anchored=inst.anchored, closed=inst.closed)
    sol = Solution(
        polyline=poly, order=tuple(perm), length=float(length(poly).total),
        max_residual=resid, converged=bool(feasible),
        branch_assignment=assign if assign and any(a is not None for a in assign) else None,
        residuals=per_point, instance_name=inst.name, seed=opts.seed,
        gap=_duality_gap(target, P, inst.anchored, inst.closed),
    )
    if not feasible:
        raise NonConvergenceError(
            f"no start reached feasibility (best residual {resid:.3e})", best=sol)
    return sol


def solve_branch_strategies(inst: Instance, opts: SolveOptions | None = None,
                            order=None) -> list[Solution]:
    """One solution per uniform factor choice of a product family.

    Each strategy starts from the nearest point of its own factor (seen from the
    anchor), which is how the qualitatively different optima of a union-of-sets
    boundary are told apart.
    """
    opts = opts or SolveOptions()
    order = order if order is not None else (inst.order_hint or range(inst.size))
    ordered = _Ordered(inst, order)
    counts = {len(b.factors) for b in ordered.boundaries if isinstance(b, geo.Product)}
    if len(counts) != 1:
        raise ValueError("instance is not a uniform product family")
    program = _ResidualProgram(ordered.boundaries, inst.dimension)
    out = []
    for j in range(counts.pop()):
        seeds = program.resolved((j,) * inst.size).nearest(np.zeros((inst.size, inst.dimension)))
        out.append(solve_fixed_order(inst, order, opts,
                                     branch_assignment=(j,) * inst.size,
                                     initial_points=seeds))
    return out


def solve_self_referential(n: int, opts: SolveOptions | None = None) -> Solution:
    """The shortest member of the zalgaller_class2 family at n orientations.

    The family build_zalgaller(n, gamma) depends on the angle gamma of its
    first leg; gamma is chosen for the shortest member by Brent's method
    (Brent, Algorithms for Minimization without Derivatives, 1973;
    `scipy.optimize.minimize_scalar`) to a relative xtol of 1e-8; more than
    100 iterations raise.  Every family with gamma > 0 pins its first point
    on the first leg, so each gamma yields a member of the class and the
    first point's angle is gamma itself.  (With that point free instead, the
    first-point update settles on the equilateral-triangle path, length
    4/sqrt(3), while the length still falls as gamma grows past pi/3.)  The
    search brackets from the first point's angle on the unguarded half-turn
    family at gamma = 0, and returns the shortest member it solved.

    Each solve after the first starts from the last one's points at
    multistart 1; `iterations` is the number of solves.
    """
    opts = opts or SolveOptions()
    warm = None
    members = []

    def solve(gamma: float) -> Solution:
        nonlocal warm
        inst = build_zalgaller(n, gamma)
        if warm is not None and len(warm) < inst.size:
            # zalgaller_class2 at gamma > 0 appends the y = 0 guard wall
            warm = np.vstack([warm, warm[-1:]])
        sol = solve_fixed_order(inst, range(inst.size),
                                opts if warm is None else replace(opts, multistart=1),
                                initial_points=warm)
        warm = sol.points()
        return sol

    def member_length(gamma: float) -> float:
        members.append(solve(gamma))
        return members[-1].length

    gamma0 = _first_leg_angle(solve(0.0))
    # from N = 4 to 720 the search takes 12-16 solves from (gamma0, gamma0 + 0.05)
    res = minimize_scalar(member_length, bracket=(gamma0, gamma0 + 0.05), method="brent",
                          options={"xtol": 1e-8, "maxiter": 100})
    # the unguarded family at gamma = 0 is one more solve, but no member
    sol = replace(min(members, key=lambda m: m.length), iterations=len(members) + 1)
    if not res.success:
        raise NonConvergenceError("first-leg angle search still moving after 100 iterations",
                                  best=sol)
    return sol


def _first_leg_angle(sol: Solution) -> float:
    """Angle between the first leg and the -x ray of the entry edge y = 0."""
    x0, y0 = sol.points()[0][:2]
    # direction from the first point back to the start; atan(y0/x0) equals it
    # only for x0 < 0 (it is off by pi for x0 > 0 and needs a branch at x0 = 0)
    return math.atan2(-y0, -x0)
