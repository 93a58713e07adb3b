"""Search over boundary visiting orders (and curve partitions for opaque sets).

Every strategy freezes the points of a continuous solve, asks an order oracle
for an order at those points and re-solves it.  An oracle is
``oracle(order, dmat, anchor, closed) -> order``: the current order, the
distances between the frozen points, their distances to the start (zero on an
unanchored family) and whether the path closes back to the start.  The oracles
are Held-Karp subset DP (exact, closing leg included), depth-first branch and
bound with a spanning-tree bound, one first-improvement 2-opt move and a 2-opt
descent.  The exact oracles keep one tie rule, a later candidate replacing an
earlier one only if it is shorter by more than 1e-15, and are vectorized
around it: Held-Karp takes the minimum over predecessors of a whole block of
subsets at once and replays the rule only where a candidate lies within 1e-15
of the minimum, and branch and bound computes one spanning-tree bound per
expanded node.  `_improve` is the one re-solve loop, with two gates: it
re-solves an order only if that is shorter at the frozen points by more than
1e-12, and it keeps the re-solve only if that is shorter by more than
max(STEP_TOL * L, 1e-14).  `exhaustive` solves every order; it is the
reference for the oracles.  On a family of points the re-solve is only the
order's cost, since `solve_fixed_order` builds such a solution from the points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .nlp_solver import NonConvergenceError, SolveOptions, Solution, solve_fixed_order
from .scenario import Instance


@dataclass(frozen=True)
class OrderPlan:
    perm: tuple

    def __post_init__(self):
        perm = tuple(int(i) for i in self.perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("order is not a permutation")
        object.__setattr__(self, "perm", perm)

    def __len__(self) -> int:
        return len(self.perm)


class SizeGuardError(ValueError):
    """Problem too large for the requested exact search."""


# largest K for the subset DP, whose tables take K * 2^K * 9 bytes (189 MB at 20)
HELD_KARP_MAX_K = 20
MAX_ROUNDS = 200    # rounds of the 2-opt and alternating loops
STEP_TOL = 1e-10    # relative gain a kept re-solve must exceed


@dataclass(frozen=True)
class MtzModel:
    """Cycle-based order model: binary successor matrix, position auxiliaries,
    pairwise distance terms, and the anchored objective value."""

    b: tuple            # K x K 0/1 rows
    u: tuple            # K reals in [0, K-1]
    c: tuple            # K x K distances
    points: tuple       # K solved points (x, y[, z])
    boundaries: tuple   # boundary expressions, model index order
    objective: float
    anchored: bool = True

    @property
    def size(self) -> int:
        return len(self.u)

    def validate(self) -> None:
        k = self.size
        B = np.asarray(self.b)
        if B.shape != (k, k) or not np.isin(B, (0, 1)).all():
            raise ValueError("b must be a 0/1 matrix")
        if not (B.sum(axis=0) == 1).all() or not (B.sum(axis=1) == 1).all():
            raise ValueError("b rows/columns must each sum to one")
        if np.trace(B) != 0:
            raise ValueError("b has a self loop")
        u = np.asarray(self.u)
        if (u < -1e-9).any() or (u > k - 1 + 1e-9).any():
            raise ValueError("u out of [0, K-1]")
        bad = subtour_violations(B, u, k)
        if len(bad):  # the first violation in row-major order is reported
            i, j = bad[0]
            raise ValueError(f"subtour constraint violated at ({i},{j})")


def subtour_violations(B: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """Every (i, j), i != j >= 1, whose subtour inequality u[i] - u[j] + 1 <=
    k * (1 - B[i, j]) fails by more than 1e-9, in row-major order.  The depot
    0 is exempt and the coefficient is the node count k."""
    bad = u[1:k, None] - u[None, 1:k] + 1 > k * (1 - B[1:k, 1:k]) + 1e-9
    np.fill_diagonal(bad, False)
    return np.argwhere(bad) + 1


@dataclass(frozen=True)
class PartitionPlan:
    subsets: tuple                 # disjoint index tuples covering the instance
    orders: tuple                  # per-subset visiting orders (local indices)
    degenerate: bool = False

    def __post_init__(self):
        flat = sorted(i for s in self.subsets for i in s)
        if not self.subsets or any(len(s) == 0 for s in self.subsets):
            raise ValueError("subsets must be nonempty")
        if flat != list(range(len(flat))):
            raise ValueError("subsets must partition the index range")


def _frozen_geometry(inst: Instance, sol: Solution):
    """Distance matrix (and anchor legs) in boundary-index space for solved points."""
    pts = np.zeros((inst.size, inst.dimension))
    arr = sol.points()
    for pos, h in enumerate(sol.order):
        pts[h] = arr[pos]
    diff = pts[:, None, :] - pts[None, :, :]
    dmat = np.linalg.norm(diff, axis=2)
    anchor = np.linalg.norm(pts, axis=1) if inst.anchored else np.zeros(inst.size)
    return pts, dmat, anchor


def _order_cost(order, dmat, anchor, closed=False) -> float:
    total = anchor[order[0]]
    for a, b in zip(order, order[1:]):
        total += dmat[a, b]
    if closed:
        total += anchor[order[-1]]
    return float(total)


def exhaustive(inst: Instance, opts: SolveOptions | None = None) -> Solution:
    """Continuous solve of every visiting order; global over the order space."""
    opts = opts or SolveOptions()
    if inst.size > 9:
        raise SizeGuardError(f"{inst.size}! orders is beyond the exhaustive guard (K <= 9)")
    best = None
    for perm in itertools.permutations(range(inst.size)):
        try:
            sol = solve_fixed_order(inst, perm, opts)
        except NonConvergenceError:
            continue
        if best is None or sol.length < best.length - 1e-15:
            best = sol
    if best is None:
        raise NonConvergenceError("no order produced a feasible solution")
    return best


def _held_karp_order(dmat, anchor, closed: bool):
    """Exact order and its cost for fixed positions via subset DP.

    C[v, S] is the shortest path from the start through the node set S (a
    bitmask) that ends at v, and P[v, S] its predecessor (-1 at the start).
    The table is filled one popcount layer at a time, a block of every S of
    the layer that holds v at once, with the candidates (j, S) in columns.
    The tie rule is that of a sweep over predecessors j upward in which a
    later one wins only if it is shorter by more than 1e-15, so near-ties
    keep the lowest index.  That sweep ends at the column's minimum m and its
    lowest index, unless some candidate c > m has c - 1e-15 <= m; only such
    near-tie columns are swept, by `_sweep_near_ties`, in chunks no larger
    than the largest block.  A layer is read only by the next, so the sweep
    can wait until near ties fill a chunk or the layer ends.  A closed path
    ends with its leg back to the start.  The tables take K * 2^K * 9 bytes
    (see HELD_KARP_MAX_K).
    """
    k = dmat.shape[0]
    full = (1 << k) - 1
    C = np.full((k, 1 << k), np.inf)
    P = np.full((k, 1 << k), -1, dtype=np.int8)
    nodes = np.arange(k)
    C[nodes, 1 << nodes] = anchor
    popcount = np.zeros(1 << k, dtype=np.int8)
    for b in range(k):
        popcount[1 << b:2 << b] = popcount[:1 << b] + 1
    chunk = math.comb(k - 1, (k - 1) // 2)    # columns of the largest (r, v) block
    for r in range(2, k + 1):
        masks = np.flatnonzero(popcount == r)
        near, pending = [], 0
        for v in range(k):
            S = masks[masks & (1 << v) != 0]
            cand = C.take(S ^ (1 << v), axis=1)   # (j, S); inf unless j is in S - {v}
            cand += dmat[:, v, None]
            best = cand.min(axis=0)
            low = cand == best
            C[v, S] = best
            P[v, S] = low.argmax(axis=0)         # the lowest j at the minimum
            cand -= 1e-15                        # near ties: some c > m has c - 1e-15 <= m
            S = S[((cand <= best) != low).any(axis=0)]
            near.append((S, np.full(S.size, v)))
            pending += S.size
            if pending and (pending >= chunk or v == k - 1):
                Sn, Vn = (np.concatenate(a) for a in zip(*near))
                for lo in range(0, pending, chunk):
                    _sweep_near_ties(C, P, dmat, Sn[lo:lo + chunk], Vn[lo:lo + chunk])
                near, pending = [], 0
    total = C[:, full] + anchor if closed else C[:, full]
    end = int(np.argmin(total))
    order = [end]
    mask = full
    while (prev := int(P[order[-1], mask])) >= 0:
        mask ^= 1 << order[-1]
        order.append(prev)
    return tuple(reversed(order)), float(total[end])


def _sweep_near_ties(C, P, dmat, S, V):
    """Fill C[V, S] and P[V, S] column by column by the sequential rule of
    `_held_karp_order`: predecessors j upward, a later one winning only if it
    is shorter by more than 1e-15."""
    prev = C.take(S ^ (1 << V), axis=1)
    best = np.full(S.size, np.inf)
    pred = np.full(S.size, -1, dtype=np.int8)
    for j in range(dmat.shape[0]):
        cand = prev[j] + dmat[j, V]
        take = cand < best - 1e-15
        best[take] = cand[take]
        pred[take] = j
    C[V, S] = best
    P[V, S] = pred


def _dp_order(order, dmat, anchor, closed):
    """Held-Karp as an order oracle; the current order plays no part."""
    return _held_karp_order(dmat, anchor, closed)[0]


def _mst_weight(dmat, nodes) -> float:
    """Prim's spanning-tree weight over a node subset (order lower bound)."""
    idx = np.array(nodes)
    if len(idx) <= 1:
        return 0.0
    sub = dmat.take(idx, 0).take(idx, 1)
    sub[:, 0] = np.inf          # a column is closed once its node joins the tree
    key = sub[0].copy()
    total = 0.0
    for _ in range(len(idx) - 1):
        v = key.argmin()
        total += key[v]
        sub[:, v] = np.inf
        key[v] = np.inf
        np.minimum(key, sub[v], out=key)
    return float(total)


def _branch_and_bound_order(order, dmat, anchor, closed):
    """Depth-first order search with a spanning-tree bound; `order` is the
    first incumbent, and a later order replaces it only if it is shorter by
    more than 1e-15.

    A node is pruned once its cost plus the spanning-tree weight over its
    unvisited nodes and its last one reaches the incumbent's cost less 1e-12.
    That node set is its parent's unvisited set (all nodes at the root), so
    each expanded node computes one bound and hands it to its children,
    most of which it prunes.
    """
    k = len(order)
    best_order = tuple(order)
    best_cost = _order_cost(best_order, dmat, anchor, closed)

    def dfs(prefix, used, cost, bound):
        nonlocal best_order, best_cost
        if len(prefix) == k:
            total = cost + (anchor[prefix[-1]] if closed else 0.0)
            if total < best_cost - 1e-15:
                best_cost, best_order = total, tuple(prefix)
            return
        if cost + bound >= best_cost - 1e-12:
            return
        remaining = [v for v in range(k) if v not in used]
        bound = _mst_weight(dmat, remaining) if prefix else bound
        for v in remaining:
            step = dmat[prefix[-1], v] if prefix else anchor[v]
            prefix.append(v)
            used.add(v)
            dfs(prefix, used, cost + step, bound)
            prefix.pop()
            used.remove(v)

    dfs([], set(), 0.0, _mst_weight(dmat, range(k)))
    return best_order


def _two_opt_move(order, dmat, anchor, closed):
    """The first segment reversal of `order` that shortens it by more than
    1e-12 at the frozen positions, or `order` itself.

    Reversing order[i..j] changes two legs of a symmetric `dmat`: the one into
    position i (the anchor leg when i = 0) and the one out of position j (the
    closing leg when j = K-1, none on an open path).  Those changes are
    computed for every (i, j) at once and screened with a slack far above the
    rounding of two K-term sums; the survivors are confirmed in lexicographic
    order with the exact full cost, so the move is the one a full scan finds.
    """
    order = tuple(order)
    cost = _order_cost(order, dmat, anchor, closed)
    o = np.asarray(order)
    D = dmat.take(o, 0).take(o, 1)
    A = np.asarray(anchor)[o]
    step = np.diagonal(D, 1)                    # D[i, i+1]: the current legs
    delta = np.empty_like(D)
    delta[0] = A - A[0]
    delta[1:] = D[:-1] - step[:, None]
    delta[:, :-1] += D[:, 1:] - step
    if closed:
        delta[:, -1] += A - A[-1]
    screen = np.triu(delta < -1e-12 + 1e-9 * max(cost, 1.0), 1)
    for i, j in zip(*np.nonzero(screen)):
        cand = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
        if _order_cost(cand, dmat, anchor, closed) < cost - 1e-12:
            return cand
    return order


def _two_opt_order(order, dmat, anchor, closed):
    """First-improvement 2-opt at frozen positions until no reversal helps."""
    order = tuple(order)
    while (move := _two_opt_move(order, dmat, anchor, closed)) != order:
        order = move
    return order


def _improve(inst: Instance, order, oracle, opts, rounds: int) -> Solution:
    """Solve `order`, then for up to `rounds` rounds re-solve the order that
    `oracle` gives at the frozen points, until a gate (see the module
    docstring) stops it; `iterations` counts the solves."""
    sol = solve_fixed_order(inst, order, opts)
    solves = 1
    for _ in range(rounds):
        _, dmat, anchor = _frozen_geometry(inst, sol)
        order = oracle(sol.order, dmat, anchor, inst.closed)
        if _order_cost(order, dmat, anchor, inst.closed) >= \
           _order_cost(sol.order, dmat, anchor, inst.closed) - 1e-12:
            break
        new_sol = solve_fixed_order(inst, order, opts)
        solves += 1
        if new_sol.length >= sol.length - max(STEP_TOL * sol.length, 1e-14):
            break
        sol = new_sol
    return replace(sol, iterations=solves)


def held_karp(inst: Instance, opts: SolveOptions | None = None) -> Solution:
    """Optimal order for positions frozen from the hint's solve, then re-solved."""
    if inst.size > HELD_KARP_MAX_K:
        raise SizeGuardError(
            f"subset DP needs K <= {HELD_KARP_MAX_K} (its tables take K * 2^K * 9 bytes, "
            f"{HELD_KARP_MAX_K * 9 * 2 ** HELD_KARP_MAX_K / 1e6:.0f} MB at the limit)")
    return _improve(inst, inst.order_hint or range(inst.size), _dp_order, opts, 1)


def two_opt(inst: Instance, start_order, opts: SolveOptions | None = None) -> Solution:
    """First-improvement 2-opt on the order, re-solving after each accepted move."""
    return _improve(inst, getattr(start_order, "perm", start_order), _two_opt_move,
                    opts, MAX_ROUNDS)


def mtz_branch_and_bound(inst: Instance, opts: SolveOptions | None = None) -> tuple:
    """Branch and bound on positions frozen from the hint's solve, then
    re-solved; returns (solution, order model for export)."""
    if inst.size > 12:
        raise SizeGuardError("branch and bound guard is K <= 12")
    sol = _improve(inst, inst.order_hint or range(inst.size), _branch_and_bound_order, opts, 1)
    model = build_mtz_model(inst, sol)
    model.validate()
    return sol, model


def build_mtz_model(inst: Instance, sol: Solution) -> MtzModel:
    """Populate the cycle model (successor matrix, positions, distances) from a solution."""
    k = inst.size
    pts, dmat, anchor = _frozen_geometry(inst, sol)
    cycle = np.asarray(sol.order)
    succ = np.roll(cycle, -1)
    B = np.zeros((k, k), dtype=int)
    B[cycle, succ] = 1
    # positions measured along the cycle starting from node 0 (the depot)
    u = np.zeros(k)
    u[np.roll(cycle, -int(np.flatnonzero(cycle == 0)[0]))] = np.arange(k)
    # the legs added one after another, never a compensated or pairwise sum
    objective = float(anchor[0] + np.cumsum(dmat[cycle, succ])[-1])
    return MtzModel(
        b=tuple(map(tuple, B.tolist())), u=tuple(u.tolist()), c=tuple(map(tuple, dmat.tolist())),
        points=tuple(map(tuple, pts.tolist())), boundaries=inst.boundaries,
        objective=objective, anchored=inst.anchored)


def solve_alternating(inst: Instance, opts: SolveOptions | None = None) -> Solution:
    """Block-coordinate master loop: positions at fixed order, then order at
    fixed positions (Held-Karp up to HELD_KARP_MAX_K, a 2-opt descent above),
    until neither side improves."""
    oracle = _dp_order if inst.size <= HELD_KARP_MAX_K else _two_opt_order
    return _improve(inst, inst.order_hint or range(inst.size), oracle, opts, MAX_ROUNDS)


# --------------------------------------------------------------------------
# opaque-set partitions

def _sub_instance(inst: Instance, subset) -> Instance:
    idx = tuple(subset)
    return replace(
        inst,
        boundaries=tuple(inst.boundaries[i] for i in idx),
        angles=tuple(inst.angles[i] for i in idx),
        start_index=tuple(inst.start_index[i] for i in idx),
        orient_index=tuple(inst.orient_index[i] for i in idx),
        order_hint=None, seed_points=(
            tuple(inst.seed_points[i] for i in idx) if inst.seed_points else None),
    )


def _partitions_into(items, p):
    """All set partitions of `items` into exactly p nonempty blocks."""
    items = list(items)
    if p == 1:
        yield [items]
        return
    if len(items) == p:
        yield [[i] for i in items]
        return
    head, rest = items[0], items[1:]
    for part in _partitions_into(rest, p - 1):
        yield [[head]] + part
    for part in _partitions_into(rest, p):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def _solve_subset(inst, subset, opts, cache):
    key = tuple(sorted(subset))
    if key not in cache:
        sub = _sub_instance(inst, key)
        if sub.size == 1:
            sol = solve_fixed_order(sub, (0,), opts)
        else:
            sol = solve_alternating(sub, opts)
        cache[key] = sol
    return cache[key]


def partition_search(inst: Instance, p: int, opts: SolveOptions | None = None):
    """Split an opaque family into p curves; minimizes the summed curve lengths.

    Exhaustive over set partitions up to 10 boundaries, seeded local moves
    (relocate + swap, 200 stale moves) beyond.  Returns (plan, solutions, total).
    """
    opts = opts or SolveOptions()
    if inst.mode != "opaque":
        raise ValueError("partition search applies to opaque families")
    if p < 1 or p > inst.size:
        raise ValueError("need 1 <= p <= number of boundaries")
    cache: dict = {}

    def total_of(blocks):
        sols = [_solve_subset(inst, blk, opts, cache) for blk in blocks]
        return sum(s.length for s in sols), sols

    if inst.size <= 10:
        best_blocks, best_total, best_sols = None, np.inf, None
        for blocks in _partitions_into(range(inst.size), p):
            total, sols = total_of([tuple(b) for b in blocks])
            if total < best_total - 1e-15:
                best_blocks, best_total, best_sols = blocks, total, sols
    else:
        rng = np.random.default_rng(opts.seed)
        blocks = [list(chunk) for chunk in np.array_split(np.arange(inst.size), p)]
        best_blocks = [list(b) for b in blocks]
        best_total, best_sols = total_of([tuple(b) for b in blocks])
        stale = 0
        while stale < 200:
            cand = [list(b) for b in best_blocks]
            if rng.random() < 0.5 and inst.size > p:
                donors = [i for i, b in enumerate(cand) if len(b) > 1]
                src = int(rng.choice(donors))
                dst = int(rng.integers(p))
                item = cand[src].pop(int(rng.integers(len(cand[src]))))
                cand[dst].append(item)
            else:
                a, b = rng.integers(p), rng.integers(p)
                if a == b or not cand[a] or not cand[b]:
                    stale += 1
                    continue
                ia, ib = int(rng.integers(len(cand[a]))), int(rng.integers(len(cand[b])))
                cand[a][ia], cand[b][ib] = cand[b][ib], cand[a][ia]
            if any(not b for b in cand):
                stale += 1
                continue
            total, sols = total_of([tuple(sorted(b)) for b in cand])
            if total < best_total - 1e-12:
                best_blocks, best_total, best_sols = cand, total, sols
                stale = 0
            else:
                stale += 1

    blocks = [tuple(sorted(b)) for b in best_blocks]
    degenerate = p == inst.size or any(s.length <= 1e-12 for s in best_sols)
    plan = PartitionPlan(
        subsets=tuple(blocks),
        orders=tuple(s.order for s in best_sols),
        degenerate=degenerate)
    return plan, best_sols, float(best_total)
