import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from escape_solver import geometry as geo, order_search
from escape_solver.nlp_solver import SolveOptions, solve_fixed_order
from escape_solver.order_search import (HELD_KARP_MAX_K, MtzModel, OrderPlan,
                                        PartitionPlan, SizeGuardError,
                                        _branch_and_bound_order, _frozen_geometry,
                                        _held_karp_order,
                                        _mst_weight, _order_cost, _two_opt_move,
                                        _two_opt_order,
                                        build_mtz_model, exhaustive, held_karp,
                                        mtz_branch_and_bound, partition_search,
                                        solve_alternating, two_opt)
from escape_solver.scenario import Instance, build, load_config, make_scenario

OPTS = SolveOptions(multistart=1)


def _points_instance(pts, mode="escape_open"):
    pts = [tuple(map(float, p)) for p in pts]
    return Instance(name="pts", boundaries=tuple(geo.PointTarget(p) for p in pts),
                    mode=mode, dimension=2, start_anchor=None if mode == "opaque" else (0.0, 0.0),
                    angles=(0.0,) * len(pts), start_index=(0,) * len(pts),
                    orient_index=tuple(range(len(pts))))


def _lines_instance(lines, mode="opaque"):
    return Instance(name="lines", boundaries=tuple(lines), mode=mode, dimension=2,
                    start_anchor=None if mode == "opaque" else (0.0, 0.0),
                    angles=tuple(ln.angle for ln in lines),
                    start_index=(0,) * len(lines),
                    orient_index=tuple(range(len(lines))))


def test_order_plan_validates_bijection():
    OrderPlan((2, 0, 1))
    with pytest.raises(ValueError):
        OrderPlan((0, 0, 1))


def test_exhaustive_trivial_and_collinear():
    single = _points_instance([(0.5, 0.5)])
    assert exhaustive(single, OPTS).length == pytest.approx(math.sqrt(0.5))
    collinear = _points_instance([(1, 0), (2, 0), (3, 0)])
    sol = exhaustive(collinear, OPTS)
    assert sol.order == (0, 1, 2)
    assert sol.length == pytest.approx(3.0, abs=1e-12)


def test_exhaustive_size_guard():
    with pytest.raises(SizeGuardError):
        exhaustive(_points_instance([(i, 0) for i in range(10)]), OPTS)


def test_held_karp_small_cases():
    inst = _points_instance([(0, 1), (2, 0), (0.5, 0.5)])
    assert held_karp(inst, OPTS).length == exhaustive(inst, OPTS).length
    two = _points_instance([(3, 0), (0, 1)])
    sol = held_karp(two, OPTS)
    assert sol.length == pytest.approx(1 + math.hypot(3, -1), abs=1e-12)


def test_held_karp_matches_exhaustive_random():
    rng = np.random.default_rng(9)
    inst = _points_instance(rng.uniform(-1, 1, (7, 2)))
    assert held_karp(inst, OPTS).length == exhaustive(inst, OPTS).length


def test_held_karp_bounds_exhaustive_on_line_family():
    # with movable points the frozen-position DP is an upper bound: repositioning
    # interacts with the order, which only the exhaustive joint search sees
    inst = build(make_scenario("halfplane_unit", 5))
    dp = held_karp(inst, OPTS).length
    joint = exhaustive(inst, OPTS).length
    assert dp >= joint - 1e-12


def test_exact_strategies_agree_on_closed_point_families():
    # the closing leg back to the start is part of every order's cost, so the
    # frozen-position DP and branch and bound must find the exhaustive optimum;
    # a cycle and its reversal are equally long up to rounding
    rng = np.random.default_rng(15)
    for _ in range(8):
        inst = _points_instance(rng.uniform(-1, 1, (int(rng.integers(4, 8)), 2)),
                                mode="escape_closed")
        se = exhaustive(inst, OPTS)
        assert held_karp(inst, OPTS).length == pytest.approx(se.length, abs=1e-12)
        assert mtz_branch_and_bound(inst, OPTS)[0].length == pytest.approx(se.length, abs=1e-12)


def test_two_opt_keeps_optimal_and_repairs_reversed():
    collinear = [(1, 0), (2, 0), (3, 0)]
    inst = _points_instance(collinear)
    sol = two_opt(inst, (0, 1, 2), OPTS)
    assert sol.order == (0, 1, 2)
    rev = two_opt(inst, (2, 1, 0), OPTS)
    assert rev.order == (0, 1, 2)
    assert rev.length == pytest.approx(3.0, abs=1e-12)


def test_two_opt_upper_bounds_dp():
    rng = np.random.default_rng(10)
    inst = _points_instance(rng.uniform(-1, 1, (8, 2)))
    t = two_opt(inst, tuple(range(8)), OPTS)
    h = held_karp(inst, OPTS)
    assert t.length >= h.length - 1e-12


def test_branch_and_bound_agrees_and_models():
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = int(rng.integers(3, 8))
        inst = _points_instance(rng.uniform(-1, 1, (k, 2)))
        sb, model = mtz_branch_and_bound(inst, OPTS)
        se = exhaustive(inst, OPTS)
        assert sb.length == se.length
        model.validate()
    with pytest.raises(SizeGuardError):
        mtz_branch_and_bound(_points_instance([(i, 0) for i in range(13)]), OPTS)


def test_model_counts_for_k5():
    rng = np.random.default_rng(12)
    inst = _points_instance(rng.uniform(-1, 1, (5, 2)))
    _, model = mtz_branch_and_bound(inst, OPTS)
    assert len(model.b) == 5 and all(len(r) == 5 for r in model.b)
    assert len(model.u) == 5
    assert all(0.0 <= u <= 4.0 for u in model.u)


def test_model_invariants_rejected_when_broken():
    rng = np.random.default_rng(13)
    inst = _points_instance(rng.uniform(-1, 1, (4, 2)))
    sol = exhaustive(inst, OPTS)
    model = build_mtz_model(inst, sol)
    bad_b = [list(r) for r in model.b]
    bad_b[0][0] = 1
    broken = MtzModel(b=tuple(map(tuple, bad_b)), u=model.u, c=model.c,
                      points=model.points, boundaries=model.boundaries,
                      objective=model.objective)
    with pytest.raises(ValueError):
        broken.validate()


def _reference_mtz_model(inst, sol):
    """`build_mtz_model` as it was: one Python step per successor and
    position, numpy scalars in the fields, and builtin sum() over numpy floats."""
    k = inst.size
    pts, dmat, anchor = _frozen_geometry(inst, sol)
    B = np.zeros((k, k), dtype=int)
    cycle = list(sol.order)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        B[a, b] = 1
    start = cycle.index(0)
    u = np.zeros(k)
    for pos, node in enumerate(cycle[start:] + cycle[:start]):
        u[node] = pos
    objective = float(anchor[0] + sum(dmat[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1])))
    return MtzModel(b=tuple(map(tuple, B)), u=tuple(map(float, u)), c=tuple(map(tuple, dmat)),
                    points=tuple(map(tuple, pts)), boundaries=inst.boundaries,
                    objective=objective, anchored=inst.anchored)


def _mtz_cases():
    """(instance, solution): far-apart points, where a compensated sum of the
    legs differs from the sequential one, and anchored, unanchored, closed
    and 3D families."""
    far = _points_instance([(1.0, 0.0), (1e16, 0.0), (1e16, 1.0), (1e16, 2.0), (1.0, 1.0)])
    insts = [far, _points_instance(np.random.default_rng(14).uniform(-1, 1, (9, 2)))]
    insts += [build(make_scenario(name, n, m, **kw)) for name, n, m, kw in (
        ("halfplane_unit", 90, 1, {}), ("opaque_circle_tangent", 45, 1, {}),
        ("circle_exterior", 12, 1, {"mode": "escape_closed"}), ("plane3d", 3, 3, {}))]
    return [(inst, solve_fixed_order(inst, inst.order_hint or tuple(range(inst.size))[::-1],
                                     OPTS)) for inst in insts]


def test_mtz_model_fields_are_bitwise_the_reference():
    for inst, sol in _mtz_cases():
        model, ref = build_mtz_model(inst, sol), _reference_mtz_model(inst, sol)
        assert np.array_equal(model.b, ref.b) and np.asarray(model.b).dtype == np.asarray(ref.b).dtype
        for key in ("u", "c", "points", "objective"):
            assert np.asarray(getattr(model, key)).tobytes() == \
                np.asarray(getattr(ref, key)).tobytes(), key
        assert (model.boundaries, model.anchored) == (ref.boundaries, ref.anchored)


def test_mtz_objective_is_the_sequential_sum_of_the_cycle():
    """anchor[0] + ((0 + d1) + d2) + ... in float64, leg by leg.  The builtin
    sum() over Python floats is compensated from Python 3.12, as math.fsum is;
    on the far-apart points either would end 4 higher."""
    for case, (inst, sol) in enumerate(_mtz_cases()):
        model = build_mtz_model(inst, sol)
        anchor = np.linalg.norm(np.array(model.points), axis=1)[0] if inst.anchored else 0.0
        cycle = list(sol.order)
        legs = [model.c[a][b] for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        total = 0
        for d in legs:
            total = total + d
        assert model.objective == anchor + total
        if case == 0:
            assert model.objective == 2e16 and math.fsum([anchor, *legs]) == 2e16 + 4


def test_alternating_with_hint_matches_fixed_order():
    inst = build(make_scenario("halfplane_unit", 12))
    a = solve_alternating(inst, OPTS)
    b = solve_fixed_order(inst, inst.order_hint, OPTS)
    assert a.length == pytest.approx(b.length, abs=1e-12)


def test_alternating_recovers_strip_hint_order():
    hinted = build(make_scenario("strip_middle", 8))
    with_hint = solve_fixed_order(hinted, hinted.order_hint, OPTS)
    blind = load_config({"name": "strip_middle", "N": 8, "order": "search"})
    sol = solve_alternating(build(blind), OPTS)
    assert sol.length == pytest.approx(with_hint.length, abs=1e-6)


def test_alternating_reaches_fixpoint_quickly():
    inst = build(make_scenario("point_unit", 6))
    sol = solve_alternating(inst, OPTS)
    assert sol.iterations <= 5


def test_alternating_never_worse_than_start():
    rng = np.random.default_rng(14)
    inst = _points_instance(rng.uniform(-1, 1, (6, 2)))
    start = solve_fixed_order(inst, tuple(range(6)), OPTS)
    alt = solve_alternating(inst, OPTS)
    assert alt.length <= start.length + 1e-12


def test_partition_single_curve_reduces_to_plain_search():
    lines = [geo.Line(0.0, 1.0), geo.Line(math.pi / 2, 1.0), geo.Line(math.pi, 1.0)]
    inst = _lines_instance(lines)
    plan, sols, total = partition_search(inst, 1, OPTS)
    assert plan.subsets == ((0, 1, 2),)
    direct = solve_alternating(inst, OPTS)
    assert total == pytest.approx(direct.length, abs=1e-9)


def test_partition_full_split_is_degenerate():
    lines = [geo.Line(0.0, 1.0), geo.Line(math.pi / 2, 1.0), geo.Line(math.pi, 1.0)]
    inst = _lines_instance(lines)
    plan, sols, total = partition_search(inst, 3, OPTS)
    assert plan.degenerate
    assert total == pytest.approx(0.0, abs=1e-9)


def test_partition_two_lines_through_origin():
    inst = build(make_scenario("opaque_square", 2, 1))
    plan, sols, total = partition_search(inst, 1, OPTS)
    # both family members are the same line through the grid point
    assert total == pytest.approx(0.0, abs=1e-9)


def test_partition_prefers_natural_grouping():
    # two tight clusters far apart: p=2 should split them cleanly
    pts = [(0, 0.1), (0, 0.2), (5, 0.1), (5, 0.2)]
    inst = _points_instance(pts, mode="opaque")
    plan, sols, total = partition_search(inst, 2, OPTS)
    assert sorted(map(sorted, plan.subsets)) == [[0, 1], [2, 3]]
    assert total == pytest.approx(0.2, abs=1e-9)


def test_partition_local_search_returns_python_ints():
    # above 10 boundaries the search is by local moves, not over every partition
    inst = build(make_scenario("opaque_circle_tangent", 12))
    plan, sols, total = partition_search(inst, 2, OPTS)
    items = sorted(i for block in plan.subsets for i in block)
    assert items == list(range(12)) and all(type(i) is int for i in items)
    json.dumps(plan.subsets)
    assert total == sum(s.length for s in sols)


def test_partition_validation():
    inst = _points_instance([(1, 0)], mode="opaque")
    with pytest.raises(ValueError):
        partition_search(inst, 2, OPTS)
    escape = build(make_scenario("halfplane_unit", 4))
    with pytest.raises(ValueError):
        partition_search(escape, 1, OPTS)
    with pytest.raises(ValueError):
        PartitionPlan(subsets=((0,), ()), orders=((0,), ()))


# --------------------------------------------------------------------------
# the discrete kernels against plain-loop references

_UNIFORM = st.floats(-1.0, 1.0)
_GRID = st.integers(-3, 3).map(lambda i: i / 3)   # coarse grid: exact and near ties


def _point_sets(min_k, max_k, coords=(_UNIFORM, _GRID)):
    """Lists of 2D points, K drawn uniformly from [min_k, max_k]."""
    return st.tuples(st.sampled_from(coords), st.integers(min_k, max_k)).flatmap(
        lambda ck: st.lists(st.tuples(ck[0], ck[0]), min_size=ck[1], max_size=ck[1]))


def _duplicated_point_sets(min_k, max_k):
    """Lists of 2D points that repeat at most three grid points."""
    return st.tuples(_point_sets(1, 3, coords=(_GRID,)), st.integers(min_k, max_k)).flatmap(
        lambda bk: st.lists(st.sampled_from(bk[0]), min_size=bk[1], max_size=bk[1]))


def _frozen(pts, anchored=True):
    pts = np.asarray(pts, dtype=float)
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    anchor = np.linalg.norm(pts, axis=1) if anchored else np.zeros(len(pts))
    return dmat, anchor


def _held_karp_reference(dmat, anchor, closed):
    """Subset DP over a dict keyed by (mask, end), masks in increasing order."""
    k = dmat.shape[0]
    full = (1 << k) - 1
    C = {(1 << j, j): (float(anchor[j]), None) for j in range(k)}
    for mask in range(1, full + 1):
        for j in range(k):
            if (mask, j) not in C:
                continue
            base = C[(mask, j)][0]
            for v in range(k):
                if mask & (1 << v):
                    continue
                nm, cand = mask | (1 << v), base + dmat[j, v]
                if (nm, v) not in C or cand < C[(nm, v)][0] - 1e-15:
                    C[(nm, v)] = (cand, j)
    total = {j: C[(full, j)][0] + (anchor[j] if closed else 0.0) for j in range(k)}
    end = min(range(k), key=total.__getitem__)
    order, mask = [end], full
    while (prev := C[(mask, order[-1])][1]) is not None:
        mask ^= 1 << order[-1]
        order.append(prev)
    return tuple(reversed(order)), float(total[end])


def _held_karp_table_reference(dmat, anchor, closed):
    """Held-Karp with a predecessor table P[v, S] next to C[v, S], one
    (popcount layer, end node) block at a time, taking the lowest j at each
    block column's minimum and sweeping near-tie columns in order."""
    k = dmat.shape[0]
    full = (1 << k) - 1
    C = np.full((k, 1 << k), np.inf)
    P = np.full((k, 1 << k), -1, dtype=np.int8)
    nodes = np.arange(k)
    C[nodes, 1 << nodes] = anchor
    popcount = np.array([bin(s).count("1") for s in range(1 << k)])
    for r in range(2, k + 1):
        masks = np.flatnonzero(popcount == r)
        for v in range(k):
            S = masks[masks & (1 << v) != 0]
            cand = C.take(S ^ (1 << v), axis=1) + dmat[:, v, None]
            best = cand.min(axis=0)
            low = cand == best
            C[v, S] = best
            P[v, S] = low.argmax(axis=0)
            near = S[((cand - 1e-15 <= best) != low).any(axis=0)]
            prev = C.take(near ^ (1 << v), axis=1)
            best, pred = np.full(near.size, np.inf), np.full(near.size, -1)
            for j in range(k):
                c = prev[j] + dmat[j, v]
                take = c < best - 1e-15
                best[take], pred[take] = c[take], j
            C[v, near], P[v, near] = best, pred
    total = C[:, full] + anchor if closed else C[:, full]
    end = int(np.argmin(total))
    order, mask = [end], full
    while (prev := int(P[order[-1], mask])) >= 0:
        mask ^= 1 << order[-1]
        order.append(prev)
    return tuple(reversed(order)), float(total[end])


def _nudged(dmat, anchor, seed):
    """`dmat` and `anchor` with each distance moved up by 0, 1 or 2 ulps."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        up = np.triu(rng.integers(0, 2, dmat.shape), 1).astype(bool)
        dmat = np.where(up | up.T, np.nextafter(dmat, np.inf), dmat)
        anchor = np.where(rng.integers(0, 2, anchor.shape) == 1, np.nextafter(anchor, np.inf),
                          anchor)
    np.fill_diagonal(dmat, 0.0)
    return dmat, anchor


def _two_opt_reference(order, dmat, anchor, closed):
    """The first reversal, in (i, j) order, that the full cost accepts."""
    order = tuple(order)
    cost = _order_cost(order, dmat, anchor, closed)
    for i in range(len(order) - 1):
        for j in range(i + 1, len(order)):
            cand = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
            if _order_cost(cand, dmat, anchor, closed) < cost - 1e-12:
                return cand
    return order


@given(pts=_point_sets(1, 7), anchored=st.booleans(), closed=st.booleans())
def test_held_karp_order_is_the_brute_force_minimum(pts, anchored, closed):
    dmat, anchor = _frozen(pts, anchored)
    order, cost = _held_karp_order(dmat, anchor, closed)
    assert (order, cost) == _held_karp_reference(dmat, anchor, closed)
    assert cost == _order_cost(order, dmat, anchor, closed)
    brute = min(_order_cost(p, dmat, anchor, closed)
                for p in itertools.permutations(range(len(pts))))
    # the 1e-15 tie rule may keep a path up to 1e-15 longer per step
    assert brute <= cost <= brute + len(pts) * 1e-15


@given(pts=st.one_of(_point_sets(1, 9), _duplicated_point_sets(1, 9)),
       seed=st.integers(0, 2 ** 32 - 1), anchored=st.booleans(), closed=st.booleans())
def test_held_karp_order_matches_the_reference_on_ulp_ties(pts, seed, anchored, closed):
    # grid and repeated points give exact ties, and moving each distance up
    # by 0, 1 or 2 ulps turns many of them into near ties below the 1e-15 rule
    dmat, anchor = _nudged(*_frozen(pts, anchored), seed)
    assert _held_karp_order(dmat, anchor, closed) == _held_karp_reference(dmat, anchor, closed)


@settings(max_examples=24)
@given(pts=st.one_of(_point_sets(12, 16), _duplicated_point_sets(12, 16)),
       seed=st.integers(0, 2 ** 32 - 1), nudge=st.booleans(), anchored=st.booleans(),
       closed=st.booleans())
def test_held_karp_order_matches_the_table_reference_where_blocks_split(
        pts, seed, nudge, anchored, closed):
    # from K=12 on a popcount layer no longer fits one block, so these reach
    # the multi-block layers and the near ties swept across their blocks
    dmat, anchor = _frozen(pts, anchored)
    if nudge:
        dmat, anchor = _nudged(dmat, anchor, seed)
    assert _held_karp_order(dmat, anchor, closed) == \
        _held_karp_table_reference(dmat, anchor, closed)


def test_held_karp_order_matches_the_table_reference_on_circle_wf2(monkeypatch):
    # the K=14 matrices the alternating loop freezes on circle_wf2 7x2
    frozen = []

    def record(dmat, anchor, closed):
        frozen.append((dmat, anchor))
        return _held_karp_order(dmat, anchor, closed)

    monkeypatch.setattr(order_search, "_held_karp_order", record)
    solve_alternating(build(make_scenario("circle_wf2", 7, 2)), SolveOptions(multistart=2))
    assert frozen
    for dmat, anchor in frozen:
        for a, closed in itertools.product((anchor, np.zeros_like(anchor)), (False, True)):
            assert _held_karp_order(dmat, a, closed) == \
                _held_karp_table_reference(dmat, a, closed)


def test_held_karp_order_keeps_earlier_predecessor_on_a_near_tie():
    # into (all, 2): j=0 (path 1,0,2) costs 1.0 and the later j=1 (path 0,1,2)
    # is 2^-53 shorter, within the 1e-15 tie, so j=0 stays; argmin would take j=1
    d12 = 0.5 - 2.0 ** -53
    dmat = np.array([[0.0, 0.25, 0.5], [0.25, 0.0, d12], [0.5, d12, 0.0]])
    anchor = np.array([0.25, 0.25, 5.0])
    assert _order_cost((0, 1, 2), dmat, anchor) == 1.0 - 2.0 ** -53
    assert _held_karp_order(dmat, anchor, closed=False) == ((1, 0, 2), 1.0)


def _branch_and_bound_reference(order, dmat, anchor, closed):
    """Branch and bound that computes each node's spanning-tree bound itself,
    over its unvisited nodes and its last one."""
    k = len(order)
    best_order = tuple(order)
    best_cost = _order_cost(best_order, dmat, anchor, closed)

    def dfs(prefix, used, cost):
        nonlocal best_order, best_cost
        if len(prefix) == k:
            total = cost + (anchor[prefix[-1]] if closed else 0.0)
            if total < best_cost - 1e-15:
                best_cost, best_order = total, tuple(prefix)
            return
        remaining = [v for v in range(k) if v not in used]
        bound_nodes = remaining + ([prefix[-1]] if prefix else [])
        if cost + _mst_weight(dmat, bound_nodes) >= best_cost - 1e-12:
            return
        for v in remaining:
            step = dmat[prefix[-1], v] if prefix else anchor[v]
            prefix.append(v)
            used.add(v)
            dfs(prefix, used, cost + step)
            prefix.pop()
            used.remove(v)

    dfs([], set(), 0.0)
    return best_order


@given(pts=st.one_of(_point_sets(1, 8), _duplicated_point_sets(1, 8)), data=st.data(),
       anchored=st.booleans(), closed=st.booleans())
def test_branch_and_bound_order_matches_the_per_node_bound(pts, data, anchored, closed):
    dmat, anchor = _frozen(pts, anchored)
    start = tuple(data.draw(st.permutations(range(len(pts)))))
    assert _branch_and_bound_order(start, dmat, anchor, closed) == \
        _branch_and_bound_reference(start, dmat, anchor, closed)


@given(pts=_point_sets(2, 40), data=st.data(), anchored=st.booleans(), closed=st.booleans())
def test_two_opt_move_matches_the_full_cost_scan(pts, data, anchored, closed):
    dmat, anchor = _frozen(pts, anchored)
    order, move = None, tuple(data.draw(st.permutations(range(len(pts)))))
    while move != order:    # each step of a descent, down to its local optimum
        order, move = move, _two_opt_move(move, dmat, anchor, closed)
        assert move == _two_opt_reference(order, dmat, anchor, closed)


@settings(max_examples=12)
@given(pts=_point_sets(2, 60), data=st.data(), anchored=st.booleans(), closed=st.booleans())
def test_two_opt_order_is_the_reference_at_its_fixed_point(pts, data, anchored, closed):
    dmat, anchor = _frozen(pts, anchored)
    start = tuple(data.draw(st.permutations(range(len(pts)))))
    order, move = None, start
    while move != order:    # reference moves down to their fixed point
        order, move = move, _two_opt_reference(move, dmat, anchor, closed)
    assert _two_opt_order(start, dmat, anchor, closed) == order


@given(pts=_point_sets(1, 12, coords=(_UNIFORM,)))
def test_mst_weight_matches_set_based_prim(pts):
    dmat, _ = _frozen(pts)
    nodes = list(range(len(pts)))
    in_tree, rest = nodes[:1], set(nodes[1:])
    key = {v: dmat[0, v] for v in rest}
    total = 0.0
    while rest:
        v = min(rest, key=key.__getitem__)
        total += key[v]
        rest.remove(v)
        for w in rest:
            key[w] = min(key[w], dmat[v, w])
    assert _mst_weight(dmat, nodes) == total


def test_held_karp_guard_states_its_memory():
    inst = _points_instance([(i, 0) for i in range(HELD_KARP_MAX_K + 1)])
    with pytest.raises(SizeGuardError, match="168 MB"):
        held_karp(inst, OPTS)
