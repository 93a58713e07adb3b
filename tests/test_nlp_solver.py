import decimal
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.optimize
from hypothesis import given, strategies as st

from escape_solver import geometry as geo
from escape_solver import nlp_solver
from escape_solver.nlp_solver import (COLD_EPS, NEWTON_SHIFTS, SHORT_LEG, SMOOTH_FLOOR,
                                      NonConvergenceError, Solution, SolveOptions,
                                      _assemble_hessian, _banded_solve, _build_seeds,
                                      _coincident_runs, _common_point, _duality_gap,
                                      _merge_kinks, _Ordered, _polish, _Reduced,
                                      _ResidualProgram, _branch_step, _smoothed_newton,
                                      solve_branch_strategies, solve_fixed_order,
                                      solve_self_referential)
from escape_solver.order_search import STEP_TOL, solve_alternating
from escape_solver.path import Polyline, leg_chain, length, min_width
from escape_solver.scenario import (Instance, build, build_zalgaller, make_scenario,
                                    scale_spec)

OPTS = SolveOptions(multistart=2)


def _instance(boundaries, mode="escape_open", seed_points=None):
    n = len(boundaries)
    return Instance(name="adhoc", boundaries=tuple(boundaries), mode=mode, dimension=2,
                    start_anchor=(0.0, 0.0), angles=(0.0,) * n,
                    start_index=(0,) * n, orient_index=tuple(range(n)),
                    seed_points=seed_points)


def test_two_opposite_lines_hand_value():
    inst = _instance([geo.Line(0.0, 1.0), geo.Line(math.pi, 1.0)])
    sol = solve_fixed_order(inst, (0, 1), OPTS)
    assert sol.length == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(sol.points(), [(1.0, 0.0), (-1.0, 0.0)], atol=1e-7)


def test_point_targets_have_fixed_positions():
    inst = _instance([geo.PointTarget((1.0, 0.0)), geo.PointTarget((1.0, 1.0))])
    sol = solve_fixed_order(inst, (0, 1), OPTS)
    assert sol.length == pytest.approx(2.0, abs=1e-12)
    assert sol.max_residual == 0.0


@pytest.mark.parametrize("mode, start", [("escape_open", (0.0, 0.0)),
                                         ("escape_closed", (0.0, 0.0)),
                                         ("escape_open", (0.5, -0.25)),
                                         ("opaque", None)])
def test_a_point_family_is_its_points_without_seeds(monkeypatch, mode, start):
    def seeds(*args):
        raise AssertionError("a program with no variables was seeded")

    monkeypatch.setattr(nlp_solver, "_build_seeds", seeds)
    pts = np.random.default_rng(21).uniform(-1, 1, (6, 2))
    inst = replace(_instance([geo.PointTarget(tuple(p)) for p in pts], mode=mode),
                   start_anchor=start)
    order = (3, 0, 5, 1, 4, 2)
    sol = solve_fixed_order(inst, order, SolveOptions(multistart=3, seed=4))
    bnds = _Ordered(inst, order).boundaries
    poly = Polyline(tuple(b.point for b in bnds), anchored=inst.anchored, closed=inst.closed)
    residuals = tuple(geo.scaled_residual(b, b.point) for b in bnds)
    assert sol == Solution(polyline=poly, order=order, length=float(length(poly).total),
                           max_residual=max(residuals), converged=True, residuals=residuals,
                           instance_name=inst.name, seed=4, gap=0.0)


def test_a_line_family_is_still_seeded(monkeypatch):
    calls = []
    real = nlp_solver._build_seeds
    monkeypatch.setattr(nlp_solver, "_build_seeds", lambda *a: calls.append(a) or real(*a))
    inst = _instance([geo.Line(0.0, 1.0), geo.PointTarget((0.0, 1.0))])
    solve_fixed_order(inst, (0, 1), OPTS)
    assert len(calls) == 1



_ONE_BOUNDARY = [  # (boundary, its distance from the start at the origin)
    (geo.Line(0.3, 1.2), 1.2),
    (geo.Circle((1.5, 0.5), 0.4), math.hypot(1.5, 0.5) - 0.4),
    (geo.Circle((0.2, -0.1), 1.0), 1.0 - math.hypot(0.2, -0.1)),    # around the start
    (geo.Segment((1.0, -0.5), (1.0, 0.5)), 1.0),
    (geo.Segment((0.5, 1.0), (2.0, 1.5)), math.hypot(0.5, 1.0)),     # nearest at an end
    (geo.PointTarget((0.6, -0.8)), 1.0),
    (geo.Plane3((1 / 3, 2 / 3, 2 / 3), -0.9), 0.9),
    (geo.Product((geo.Line(1.0, 2.0), geo.Circle((0.5, 0.0), 0.3))), 0.2),
]


@pytest.mark.parametrize("mode,legs", [("escape_open", 1), ("escape_closed", 2), ("opaque", 0)])
@pytest.mark.parametrize("boundary,dist", _ONE_BOUNDARY)
def test_one_boundary_is_its_distance_from_the_start(boundary, dist, mode, legs):
    """K = 1: one leg out to the nearest boundary point, out and back when
    closed, and no leg at all when opaque."""
    dim = 3 if isinstance(boundary, geo.Plane3) else 2
    inst = Instance(name="one", boundaries=(boundary,), mode=mode, dimension=dim,
                    start_anchor=(0.0,) * dim, angles=(0.0,), start_index=(0,),
                    orient_index=(0,))
    sol = solve_fixed_order(inst, (0,), OPTS)
    assert sol.converged
    assert sol.length == pytest.approx(legs * dist, abs=1e-9)
    if legs and isinstance(boundary, geo.Circle):
        # the warm polish of one point ends where the cold ones of both radii do
        program = _ResidualProgram((boundary,), dim)
        P0 = program.nearest(np.array([[0.3, 0.9]]))
        warm = _polish(program, P0, True, legs == 2)[1]
        cold = [_polish(program, P0, True, legs == 2, eps0)[1] for eps0 in COLD_EPS]
        assert warm == pytest.approx(legs * dist)
        assert cold == pytest.approx([warm] * 2, abs=1e-9)

def _affine_families():
    rng = np.random.default_rng(3)
    points = _instance([geo.PointTarget(tuple(p)) for p in rng.uniform(-1, 1, (6, 2))])
    yield points, (3, 0, 5, 1, 4, 2)
    for name, n, m in (("halfplane_unit", 12, 1), ("strip_middle", 8, 1), ("plane3d", 2, 3)):
        inst = build(make_scenario(name, n, m))
        yield inst, inst.order_hint or tuple(range(inst.size))


def test_affine_families_solve_the_same_at_every_multistart():
    for inst, order in _affine_families():
        sols = [solve_fixed_order(inst, order, SolveOptions(multistart=k, seed=k))
                for k in (1, 2, 5)]
        for sol in sols[1:]:
            assert sol.points().tobytes() == sols[0].points().tobytes()
            assert repr(sol.length) == repr(sols[0].length)
            assert sol.order == sols[0].order == tuple(order)


@pytest.mark.parametrize("multistart", [1, 2])
def test_strip_wf2_polish_reaches_its_convex_minimum(multistart):
    inst = build(make_scenario("strip_wf2", 6, 4))
    sol = solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=multistart))
    assert sol.length <= 1.42881500


def test_plane3d_polish_reaches_its_convex_minimum():
    inst = build(make_scenario("plane3d", 3, 3))
    sol = solve_fixed_order(inst, tuple(range(inst.size)), SolveOptions(multistart=2))
    assert sol.length <= 5.87367010


@pytest.mark.parametrize("name,n", [("halfplane_unit", 90), ("strip_middle", 60),
                                    ("opaque_circle_tangent", 45)])
def test_convex_families_reach_one_minimum_from_any_start(name, n):
    inst = build(make_scenario(name, n))
    base = solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=1)).points()
    rng = np.random.default_rng(7)
    lengths = [solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=1),
                                 initial_points=base + rng.normal(scale=0.3, size=base.shape)
                                 ).length for _ in range(3)]
    assert max(lengths) - min(lengths) <= 1e-12 * max(lengths)


@pytest.mark.parametrize("lines,P0", [
    ([geo.Line(0.3, 1.0)], [[0.8, 1.7]]),                          # no leg
    ([geo.Line(0.0, 1.0), geo.Line(0.0, 1.0)], [[1.0, 0.5]] * 2),  # one leg of length 0
])
def test_affine_polish_without_length_returns_its_start(lines, P0):
    program = _ResidualProgram(lines, 2)
    P, L = _polish(program, np.array(P0), anchored=False, closed=False)
    red = _Reduced(program)
    assert L == 0.0
    assert P.tobytes() == red.points(red.init_vars(np.array(P0))).tobytes()


def _solve_hint(name, n, m=1):
    inst = build(make_scenario(name, n, m))
    return inst, solve_fixed_order(inst, inst.order_hint or tuple(range(inst.size)), OPTS)


def _resolved_program(inst, sol):
    """The branch-resolved, unmerged program of a solution's order."""
    program = _ResidualProgram(_Ordered(inst, sol.order).boundaries, inst.dimension)
    return program.resolved(sol.branch_assignment) if sol.branch_assignment else program


# the bench's convex instances, then further line and plane families
CONVEX_BENCH = [("halfplane_unit", 90, 1), ("strip_middle", 60, 1),
                ("opaque_circle_tangent", 45, 1), ("plane3d", 3, 3)]


@pytest.mark.parametrize("name,n,m", CONVEX_BENCH + [
    ("strip_wf2", 6, 4), ("perp_lines_half", 60, 1), ("plane3d", 2, 2),
    ("halfplane_unit", 720, 1), ("strip_wf2", 12, 26)])
def test_affine_solves_are_certified_by_their_duality_gap(name, n, m):
    _, sol = _solve_hint(name, n, m)
    assert -1e-14 * sol.length <= sol.gap <= 1e-9 * max(sol.length, 1.0)


@pytest.mark.parametrize("name,n,m", [("halfplane_unit", 90, 1), ("plane3d", 3, 3),
                                      ("strip_wf2", 6, 4), ("strip_wf2", 12, 26)])
def test_duality_gap_bounds_the_excess_of_any_point(name, n, m):
    """At points moved off the solution along their charts the certificate
    still bounds the excess over the minimum, so it is at least the excess
    over the solved length."""
    inst, sol = _solve_hint(name, n, m)
    program = _resolved_program(inst, sol)
    red = _Reduced(program)
    t = red.init_vars(sol.points())
    rng = np.random.default_rng(5)
    for scale in (1e-9, 1e-6, 1e-3, 1e-1):
        P = red.points(t + scale * rng.normal(size=t.shape))
        excess = leg_chain(P, inst.anchored, inst.closed).total - sol.length
        assert excess > 0.0
        assert _duality_gap(program, P, inst.anchored, inst.closed) >= excess - 1e-14 * sol.length


def test_duality_gap_is_zero_without_variables_and_none_on_curved_charts():
    points = _instance([geo.PointTarget((1.0, 0.0)), geo.PointTarget((1.0, 1.0))])
    assert solve_fixed_order(points, (0, 1), OPTS).gap == 0.0
    assert _solve_hint("circle_exterior", 12)[1].gap is None
    assert _solve_hint("circle_plus_segment", 12)[1].gap is None


@pytest.mark.parametrize("name,n,m", CONVEX_BENCH + [("perp_lines_half", 60, 1)])
def test_an_affine_solve_is_one_smoothed_newton_polish(monkeypatch, name, n, m):
    """No L-BFGS-B; polishing the answer once more gains no more than its
    certified gap."""
    calls = []
    real = nlp_solver.minimize
    monkeypatch.setattr(nlp_solver, "minimize", lambda *a, **k: calls.append(k) or real(*a, **k))
    inst, sol = _solve_hint(name, n, m)
    assert calls == []
    P, _ = _polish(_resolved_program(inst, sol), sol.points(), inst.anchored, inst.closed)
    again = length(Polyline(tuple(map(tuple, P)), inst.anchored, inst.closed)).total
    assert sol.length - again <= sol.gap


def test_a_curved_start_ends_without_lbfgs(monkeypatch):
    """A curved solve polishes by smoothed Newton alone, and each start ends on
    its kink merge's one re-polish, at or below the answer of the retired
    warm L-BFGS-B (2.994717525, stopped on its iteration cap)."""
    calls = []
    real = nlp_solver.minimize
    monkeypatch.setattr(nlp_solver, "minimize", lambda *a, **k: calls.append(k) or real(*a, **k))
    assert _solve_hint("circle_interior_nonunique", 30)[1].length <= 2.9947050781
    assert calls == []


@pytest.mark.parametrize("name,n,m", [("halfplane_unit", 90, 1), ("strip_wf2", 6, 4),
                                      ("circle_interior_nonunique", 30, 1), ("circle_wf2", 7, 2)])
def test_one_merge_pass_leaves_nothing_to_merge(monkeypatch, name, n, m):
    """Each run of coincident points in what `_merge_kinks` returns is already
    pinned to point targets in the program it returns, so a second pass would
    merge nothing; on each family some call merges."""
    returned = []
    real = nlp_solver._merge_kinks

    def merge(program, *a):
        returned.append((program,) + real(program, *a))
        return returned[-1][1:]

    monkeypatch.setattr(nlp_solver, "_merge_kinks", merge)
    _solve_hint(name, n, m)
    assert any(merged is not program for program, merged, _ in returned)
    for _, merged, P in returned:
        for run in _coincident_runs(P):
            assert all(isinstance(merged.boundaries[r], geo.PointTarget) for r in run)


def test_curved_answers_stay_at_or_below_their_values():
    inst = build(make_scenario("circle_wf2", 7, 2))
    sol = solve_alternating(inst, OPTS)
    assert sol.length <= 1.9541634565979922
    assert sol.order == (13, 12, 11, 10, 9, 8, 7, 1, 6, 2, 0, 4, 5, 3)
    inst = build(make_scenario("circle_wf2", 8, 2))
    sol = solve_fixed_order(inst, tuple(reversed(range(inst.size))), SolveOptions(multistart=1))
    assert sol.length <= 2.2716098644467433
    assert _solve_hint("circle_interior_02", 30)[1].length <= 1.2458198548136836


@pytest.mark.parametrize("n,multistart,bound", [(30, 1, 3.6781609283476993),
                                                (30, 2, 3.677521199114972),
                                                (90, 2, 3.684097325589203)])
def test_closed_curved_answers_stay_at_or_below_their_values(n, multistart, bound):
    """Out and back through circle_interior_nonunique.  A cold L-BFGS-B polish
    reached 3.677521199114972 at N=30 from one start and 3.68409593190819 at
    N=90; the smoothed Newton from either first radius ends N=90 in another
    local minimum, and from 1e-1 L (start 0) N=30 as well."""
    inst = build(make_scenario("circle_interior_nonunique", n, mode="escape_closed"))
    sol = solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=multistart))
    assert sol.length <= bound


def _crossing(c1, c2, r, near):
    """The crossing of two circles of radius r nearest `near`, from the float
    centres in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        (x1, y1), (x2, y2) = ([decimal.Decimal(v) for v in c] for c in (c1, c2))
        dx, dy = x2 - x1, y2 - y1
        d = (dx * dx + dy * dy).sqrt()
        h = (decimal.Decimal(r) ** 2 - d * d / 4).sqrt()
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        both = [(mx - h * dy / d, my + h * dx / d), (mx + h * dy / d, my - h * dx / d)]
        return np.array(min(both, key=lambda q: (float(q[0]) - near[0]) ** 2
                            + (float(q[1]) - near[1]) ** 2), dtype=float)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is float64 here")
@pytest.mark.parametrize("angle", [2 * math.pi / 30, 0.05, 1e-2, 1e-3])
def test_common_point_of_circles_crossing_at_a_small_angle_is_rounded(angle):
    """circle_interior_02's merged corners: the crossing of two circles of
    radius 1.2 whose centres sit `angle` apart on the unit circle, within one
    ulp of its largest coordinate.  float64 Gauss-Newton alone stops 7 to 230
    ulps away at these angles."""
    c1, c2 = (1.0, 0.0), (math.cos(angle), math.sin(angle))
    p0 = np.array([-0.2, 0.1])
    q = _common_point([geo.Circle(c1, 1.2), geo.Circle(c2, 1.2)], p0)
    exact = _crossing(c1, c2, 1.2, p0)
    assert np.abs(q - exact).max() <= np.spacing(np.abs(exact).max())


def _record_banded_solves(monkeypatch):
    """The (red, H, rhs, lam, x) of every `_banded_solve` call from here on."""
    calls = []

    def record(red, H, rhs, lam=0.0):
        calls.append((red, H, rhs, lam, _banded_solve(red, H, rhs, lam)))
        return calls[-1][-1]

    monkeypatch.setattr(nlp_solver, "_banded_solve", record)
    return calls


def test_smoothed_newton_shifts_an_indefinite_circle_hessian(monkeypatch):
    """Where the banded Cholesky of H fails or gives no descent, the step
    solves H + lam I for a larger lam, and only a step that descends is
    taken; the continuation still never raises the length."""
    calls = _record_banded_solves(monkeypatch)
    program = _ResidualProgram(build(make_scenario("circle_interior_nonunique", 8)).boundaries, 2)
    red = _Reduced(program)
    for seed in range(4):
        t = red.init_vars(program.nearest(np.random.default_rng(seed).uniform(-2, 2, (8, 2))))
        before = leg_chain(red.points(t)).total
        after = leg_chain(red.points(_smoothed_newton(red, t, True, False, 1e-4))).total
        assert after < before
    assert any(lam > 0.0 for *_, lam, _ in calls)
    for prev, (_, H, rhs, lam, _) in zip(calls, calls[1:]):
        if lam > 0.0:   # a shift follows a failed or ascending step on the same system
            assert prev[1] is H and prev[3] < lam
            assert prev[4] is None or rhs @ prev[4] <= 0.0


@pytest.mark.parametrize("closed", [False, True])
def test_a_boxed_polish_keeps_segment_coordinates_in_their_box(monkeypatch, closed):
    """The projected step on segment boxes: from the nearest points and from
    the segments' midpoints, each start radius ends at the minimum of a chain
    whose first two points sit inside their segments and whose last sits at
    an end, with every t in [0, 1], as a bounded L-BFGS-B run finds it.  A
    held variable (right-hand side 0) does not move in any step."""
    segments = [geo.Segment((2.0, -1.0), (2.0, 1.0)), geo.Segment((-1.0, 1.0), (-1.0, 3.0)),
                geo.Segment((0.5, 3.0), (1.5, 4.0))]
    program = _ResidualProgram(segments, 2)
    red = _Reduced(program)
    assert red.boxed and not _Reduced(_ResidualProgram([geo.Line(0.0, 1.0)], 2)).boxed

    def length_and_gradient(t):
        legs = leg_chain(red.points(t), True, closed)
        return legs.total, red.chain(t, legs.grad)

    ref = scipy.optimize.minimize(length_and_gradient, np.full(3, 0.5), jac=True,
                                  method="L-BFGS-B", bounds=[(0.0, 1.0)] * 3,
                                  options={"ftol": 1e-15, "gtol": 1e-12})
    calls = _record_banded_solves(monkeypatch)
    for t0 in (red.init_vars(program.nearest(np.zeros((3, 2)))), np.full(3, 0.5)):
        for eps0 in COLD_EPS + (SMOOTH_FLOOR,):
            t = _smoothed_newton(red, t0.copy(), True, closed, eps0)
            assert ((0.0 <= t) & (t <= 1.0)).all() and t[2] == 0.0 and (0.0 < t[:2]).all()
            assert (t[:2] < 1.0).all() and np.abs(t - ref.x).max() < 1e-6
            assert abs(length_and_gradient(t)[0] - ref.fun) < 1e-9
    held = [(rhs == 0.0, x) for _, _, rhs, _, x in calls if x is not None and (rhs == 0.0).any()]
    assert held and all((x[h] == 0.0).all() for h, x in held)


_SCALED = [("halfplane_unit", 90, 1, 2), ("strip_middle", 60, 1, 2), ("perp_lines_half", 60, 1, 2),
           ("circle_wf2", 12, 4, 1), ("circle_interior_nonunique", 30, 1, 1)]


@pytest.mark.parametrize("name,n,m,multistart", _SCALED, ids=[f"{c[0]}-{c[1]}" for c in _SCALED])
def test_affine_solves_are_scale_covariant(name, n, m, multistart):
    """The smoothing radii are relative to the length, so no absolute radius
    (such as COINCIDENT) moves the answer at other scales; on the curved
    families the cold polish is the smoothed Newton from COLD_EPS times the
    length, where a cold L-BFGS-B (absolute tolerances) ended at a different
    minimum at each scale."""
    spec = make_scenario(name, n, m)
    order = spec.order_hint or tuple(range(build(spec).size))
    opts = SolveOptions(multistart=multistart)
    base = solve_fixed_order(build(spec), order, opts).length
    for s in (1e-3, 1e3):
        scaled = solve_fixed_order(build(scale_spec(spec, s)), order, opts).length
        assert abs(scaled / s - base) <= 1e-12 * base


@pytest.mark.parametrize("n", [12, 20, 48])
@pytest.mark.parametrize("first", [0, 1])
def test_segment_solves_are_scale_covariant(n, first):
    """Segment boxes take the projected smoothed Newton, whose radii are
    relative to the length, so alternating circle_plus_segment ends at the
    same L/s at each scale (the box's L-BFGS-B, with absolute tolerances,
    gave 5.548 / 5.548 / 5.720 at N=12).  At 1e3 the runs of two circles and
    a segment end have parallel gradients, where the corner's Gauss-Newton
    step falls back to least squares."""
    spec = make_scenario("circle_plus_segment", n)
    alternating = tuple((i + first) % 2 for i in range(n))
    opts = SolveOptions(multistart=1)
    lengths = [solve_fixed_order(inst, inst.order_hint, opts,
                                 branch_assignment=alternating).length / s
               for s in (1e-3, 1.0, 1e3) for inst in [build(scale_spec(spec, s))]]
    assert max(lengths) - min(lengths) <= 1e-9 * lengths[1]


def test_feasibility_of_catalog_solutions():
    for name, n in (("halfplane_unit", 24), ("circle_exterior", 16),
                    ("strip_middle", 24), ("perp_lines_half", 16)):
        inst = build(make_scenario(name, n))
        sol = solve_fixed_order(inst, inst.order_hint, OPTS)
        assert sol.converged
        assert sol.max_residual <= OPTS.feas_tol
        assert max(sol.residuals) == pytest.approx(sol.max_residual)


def test_determinism_bitwise():
    inst = build(make_scenario("circle_interior_02", 20))
    a = solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=3, seed=5))
    b = solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=3, seed=5))
    assert a.length == b.length
    assert a.points().tobytes() == b.points().tobytes()


def test_resolving_again_does_not_improve():
    inst = build(make_scenario("circle_exterior", 24))
    sol = solve_fixed_order(inst, inst.order_hint, OPTS)
    again = solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=1),
                              initial_points=sol.points())
    assert again.length >= sol.length - max(STEP_TOL * sol.length, 1e-13)


def test_order_must_be_permutation():
    inst = _instance([geo.Line(0.0, 1.0), geo.Line(math.pi, 1.0)])
    with pytest.raises(ValueError):
        solve_fixed_order(inst, (0, 0), OPTS)


def test_coincident_runs_split_at_long_and_nan_legs():
    P = np.array([[0, 0], [0, 1e-7], [1, 0], [1, 0], [np.nan, 0], [2, 0], [2, 5e-7],
                  [2, 9e-7]], dtype=float)
    assert [list(run) for run in _coincident_runs(P)] == [[0, 1], [2, 3], [5, 6, 7]]


def test_strip_product_interleaved_branches_alternate():
    inst = build(make_scenario("strip_middle_product", 4))
    sol = solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=2))
    assert sol.branch_assignment is not None
    pairs = list(zip(sol.branch_assignment[0::2], sol.branch_assignment[1::2]))
    assert all(a != b for a, b in pairs)


def test_penalty_phase_is_one_stage_on_start_0(monkeypatch):
    """Only start 0 runs the penalty, and it is one L-BFGS-B stage."""
    stages = []
    real_minimize, real_phase = nlp_solver.minimize, nlp_solver._penalty_phase

    def minimize(*a, **k):
        if k.get("maxcor") == 20:
            stages[-1] += 1
        return real_minimize(*a, **k)

    def phase(*a):
        stages.append(0)
        return real_phase(*a)

    monkeypatch.setattr(nlp_solver, "minimize", minimize)
    monkeypatch.setattr(nlp_solver, "_penalty_phase", phase)
    _solve_hint("strip_middle_product", 20)
    assert stages == [1]


@pytest.mark.parametrize("name, n, mode, L, branches", [
    ("strip_middle_product", 20, "escape_open", 1.6274364398109686, "10" * 10),
    # start 0's penalty: no assignment at this order does better; the
    # branch step alone stops one flip away, at 1.825630617549618 (11010110)
    ("perp_lines_product", 8, "escape_open", 1.7672287379673166, "11010100"),
    ("perp_lines_product", 20, "escape_open", 2.262717157782102, "11010101010000000000"),
    # the flipped step's answers: without it (one penalty stage and the
    # plain step) closed N=32 ends at 3.013295, open N=32 at 2.386000 and
    # open N=40 at 2.391945
    ("perp_lines_product", 32, "escape_closed", 2.974046307433508, "11" + "01" * 7 + "0" * 16),
    ("perp_lines_product", 32, "escape_open", 2.346726398117992, "11" + "01" * 7 + "0" * 16),
    ("perp_lines_product", 40, "escape_open", 2.3752645549997364, "11" + "01" * 9 + "0" * 20),
])
def test_product_answers_keep_their_branches(name, n, mode, L, branches):
    inst = build(make_scenario(name, n, mode=mode))
    sol = solve_fixed_order(inst, inst.order_hint, OPTS)
    assert sol.length == pytest.approx(L, abs=1e-12)
    assert sol.branch_assignment == tuple(map(int, branches))


_RELATION_NS = {"strip_middle_product": (8, 20, 32, 44), "perp_lines_product": (8, 20, 32, 44),
                "circle_plus_segment": (8, 12, 16, 20)}


@pytest.mark.parametrize("name", list(_RELATION_NS))
def test_product_answer_is_at_most_each_assignment_it_could_take(name):
    """A product family's answer at the hint order is at most the answer of
    each uniform and both alternating branch assignments.  With alternating
    branches strip_middle_product is strip_middle, and there the answer is
    strip_middle's, bitwise."""
    for n in _RELATION_NS[name]:
        inst, sol = _solve_hint(name, n)
        others = [s.length for s in solve_branch_strategies(inst, OPTS)]
        for j in (0, 1):
            alternating = tuple((i + j) % 2 for i in range(inst.size))
            others.append(solve_fixed_order(inst, inst.order_hint, OPTS,
                                            branch_assignment=alternating).length)
        assert sol.length <= min(others), (n, sol.length, others)
        if name == "strip_middle_product":
            assert sol.length == _solve_hint("strip_middle", n)[1].length


@pytest.mark.parametrize("anchored, closed", [(True, False), (False, True), (True, True)])
def test_branch_step_never_lengthens_the_path(anchored, closed):
    """On products mixed with plain rows, from points on the boundaries: the
    chosen points lie on the chosen factors (a plain row's on its boundary),
    plain rows get no factor, and the path is at most as long."""
    line, circle = geo.Line(0.3, 0.5), geo.Circle((0.2, -0.1), 0.7)
    boundaries = [geo.Product((geo.Line(0.4 * i, 0.5), geo.Line(0.4 * i, -0.5))) if i % 3
                  else (line, circle, geo.Segment((0.0, 1.0), (1.0, 0.5)))[i // 3 % 3]
                  for i in range(11)]
    program = _ResidualProgram(boundaries, 2)
    for seed in range(5):
        P = program.nearest(np.random.default_rng(seed).uniform(-2, 2, (11, 2)))
        for _ in range(3):   # the later steps start from a path the step chose
            assign, Q = _branch_step(program, P, anchored, closed)
            assert [a is None for a in assign] == [not isinstance(b, geo.Product)
                                                   for b in boundaries]
            assert program.resolved(assign).scaled(Q).max() < 1e-12
            assert (leg_chain(Q, anchored, closed).total
                    <= leg_chain(P, anchored, closed).total + 1e-12)
            P = Q


def test_branch_step_is_the_shortest_path_through_its_candidates():
    """On four rows, where the window holds every row, the step's path is as
    short as the best of every choice of one candidate per row, each found
    by the scalar `geo.project` of the origin or a point onto a factor.  The
    flipped path is as short as the best choice that puts some product row
    off its current factor, and lies on the factors it names."""
    boundaries = [geo.Product((geo.Line(0.2, 0.5), geo.Line(0.2, -0.5))),
                  geo.Circle((0.3, 0.1), 0.8),
                  geo.Product((geo.Circle((0.0, 0.0), 1.0), geo.Segment((0.5, 0.0), (1.0, 1.0)))),
                  geo.Line(2.0, 0.4)]
    program = _ResidualProgram(boundaries, 2)
    P = program.nearest(np.random.default_rng(3).uniform(-2, 2, (4, 2)))
    sources = [np.zeros(2), *P]
    candidates = [[(j, geo.project(f, s)) for j, f in enumerate(b.factors) for s in sources]
                  for b in boundaries]
    for anchored, closed in [(True, False), (False, True), (True, True), (False, False)]:
        paths = [(leg_chain(np.array([q for _, q in path]), anchored, closed).total,
                  tuple(j for j, _ in path)) for path in itertools.product(*candidates)]
        assign, Q = _branch_step(program, P, anchored, closed)
        assert leg_chain(Q, anchored, closed).total == pytest.approx(min(paths)[0], abs=1e-12)
        for current in (assign, program.branches(P), (1, None, 0, None)):
            off = [L for L, factors in paths
                   if factors[0] != current[0] or factors[2] != current[2]]
            flipped, F = _branch_step(program, P, anchored, closed, current)
            assert flipped[0] != current[0] or flipped[2] != current[2]
            assert program.resolved(flipped).scaled(F).max() < 1e-12
            assert leg_chain(F, anchored, closed).total == pytest.approx(min(off), abs=1e-12)


def test_a_start_on_an_earlier_starts_affine_branches_is_skipped(monkeypatch):
    """On strip_wf2 6x4 start 1 takes start 0's first branches, all on lines,
    so it runs no polish and the answer stays; a solve with its branches
    given runs every start.  Without products every start's branches are
    all None, so an affine family runs start 0 alone and a curved one every
    start."""
    calls = []
    real = nlp_solver._polish
    monkeypatch.setattr(nlp_solver, "_polish", lambda *a: calls.append(1) or real(*a))
    counts, sols = [], []
    for name, n, m, assignment in (("strip_wf2", 6, 4, None), ("strip_wf2", 6, 4, (0, 1) * 12),
                                   ("halfplane_unit", 12, 1, None),
                                   ("circle_interior_nonunique", 12, 1, None)):
        inst = build(make_scenario(name, n, m))
        for multistart in (1, 2):
            calls.clear()
            sols.append(solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=multistart),
                                          branch_assignment=assignment))
            counts.append(len(calls))
    assert counts[0] == counts[1] and counts[2] < counts[3]
    assert counts[4] == counts[5] and counts[6] < counts[7]
    assert sols[1].length == 1.4288149110677597 and sols[4].length == sols[5].length


def test_branch_strategies_for_union_boundary():
    inst = build(make_scenario("circle_plus_segment", 48))
    arc, seg = solve_branch_strategies(inst, SolveOptions(multistart=1))
    assert arc.converged and seg.converged
    assert arc.length == pytest.approx(1.0, abs=1e-9)
    assert seg.length == pytest.approx(1.0, abs=2e-3)
    assert arc.branch_assignment == (0,) * inst.size
    assert seg.branch_assignment == (1,) * inst.size


def test_self_referential_converges_and_is_stable():
    sol = solve_self_referential(None, None, SolveOptions(multistart=1), n=60)
    assert sol.converged and sol.iterations <= 100
    x0, y0 = sol.points()[0]
    gamma = math.atan(y0 / x0)
    # restarting at the converged estimate settles immediately
    again = solve_self_referential(None, None, SolveOptions(multistart=1),
                                   gamma0=gamma, n=60)
    assert again.iterations <= 2
    assert again.length == pytest.approx(sol.length, abs=1e-8)


@pytest.fixture(scope="module")
def edge_strip_60():
    return solve_self_referential(None, None, SolveOptions(multistart=1), n=60)


def test_self_referential_path_escapes_every_strip(edge_strip_60):
    width, _ = min_width(edge_strip_60.polyline)
    assert width >= 1.0 - 1e-3


def test_self_referential_matches_closed_form(edge_strip_60):
    # continuum class minimum (README): 1/sin(g) + 2 cot(g) + 3 g - pi, least
    # at cos(g) = (sqrt(13) - 1) / 6, with the first leg at angle g to y = 0
    g = math.acos((math.sqrt(13.0) - 1.0) / 6.0)
    exact = 1.0 / math.sin(g) + 2.0 / math.tan(g) + 3.0 * g - math.pi
    assert edge_strip_60.length == pytest.approx(exact, abs=1e-4)
    x0, y0 = edge_strip_60.points()[0]
    assert y0 == pytest.approx(-1.0, abs=1e-12)
    assert math.atan2(-y0, -x0) == pytest.approx(g, abs=1e-3)


def test_self_referential_refinement_monotone():
    a = solve_self_referential(None, None, SolveOptions(multistart=1), n=45)
    b = solve_self_referential(None, None, SolveOptions(multistart=1), n=90)
    assert b.length >= a.length - 1e-9


def test_self_referential_oscillation_raises():
    flip = {"k": 0}

    def builder(gamma):
        flip["k"] += 1
        # families engineered so the angle estimate never settles
        return build_zalgaller(6, 0.9 if flip["k"] % 2 else 0.1)

    with pytest.raises(NonConvergenceError):
        solve_self_referential(builder, None, SolveOptions(multistart=1))


def test_closed_mode_objective():
    inst = build(make_scenario("point_unit", 24, mode="escape_closed"))
    sol = solve_fixed_order(inst, inst.order_hint, OPTS)
    open_sol = solve_fixed_order(build(make_scenario("point_unit", 24)),
                                 tuple(range(24)), OPTS)
    assert sol.length > open_sol.length


def test_plane3d_solve():
    inst = build(make_scenario("plane3d", 2, 4))
    sol = solve_fixed_order(inst, tuple(range(inst.size)), SolveOptions(multistart=1))
    assert sol.converged
    assert sol.polyline.dim == 3
    assert sol.length >= 1.0  # every tangent plane of the unit ball is 1 away


def test_options_validation():
    for feas_tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="feasibility"):
            SolveOptions(feas_tol=feas_tol)
    for multistart in (0, 2.5, math.nan, True, "2"):
        with pytest.raises(ValueError, match="starts"):
            SolveOptions(multistart=multistart)
    for seed in (-1, 1.5, math.nan, False, np.float64(1.0)):
        with pytest.raises(ValueError, match="seed"):
            SolveOptions(seed=seed)
    opts = SolveOptions(multistart=np.int64(2), seed=np.int32(1))
    assert solve_fixed_order(build(make_scenario("halfplane_unit", 8)), range(8), opts).converged


@pytest.mark.parametrize("kwargs,match", [
    ({"branch_assignment": (0, 1) * 4 + (0,)}, "branch_assignment"),
    ({"branch_assignment": (0, 1) * 3}, "branch_assignment"),
    ({"branch_assignment": (-1,) + (0,) * 7}, "branch_assignment"),
    ({"branch_assignment": (2,) * 8}, "branch_assignment"),
    ({"branch_assignment": (0.0,) * 8}, "branch_assignment"),
    ({"initial_points": np.zeros((7, 2))}, "initial_points"),
    ({"initial_points": np.full((8, 2), np.nan)}, "initial_points"),
], ids=["9-entries", "6-entries", "negative", "past-the-factors", "float", "7-rows", "nan"])
def test_solve_fixed_order_rejects_malformed_optional_inputs(kwargs, match):
    """strip_middle_product 8 has 8 two-factor products: a branch assignment
    needs 8 entries, each 0 or 1, and initial points are 8 finite rows of 2."""
    inst = build(make_scenario("strip_middle_product", 8))
    with pytest.raises(ValueError, match=match):
        solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=1), **kwargs)


def _leaves(prm):
    """The arrays of a packed parameter tuple (a plane's frame is a nested tuple)."""
    return [prm] if isinstance(prm, np.ndarray) else [a for x in prm for a in _leaves(x)]


@pytest.mark.parametrize("name", ["lines", "circles", "points", "planes", "products", "mixed"])
def test_program_results_own_their_memory(name):
    """A program of one group returns its kernels' arrays without the gather
    and scatter by group; they are bitwise what the scatter gives, share no
    memory with the packed parameters or the inputs, and writing into them
    changes no later result."""
    bnds, dim = {
        "lines": (build(make_scenario("halfplane_unit", 6)).boundaries, 2),
        "circles": (build(make_scenario("circle_interior_nonunique", 6)).boundaries, 2),
        "points": ((geo.PointTarget((1.0, 0.5)), geo.PointTarget((-0.5, 1.0))), 2),
        "planes": (build(make_scenario("plane3d", 3, 3)).boundaries, 3),
        "products": (build(make_scenario("strip_middle_product", 6)).boundaries, 2),
        "mixed": (_hessian_case("open")[0], 2),
    }[name]
    program = _ResidualProgram(bnds, dim)
    P = program.nearest(np.random.default_rng(3).uniform(-2, 2, (len(bnds), dim)))
    red = _Reduced(program.resolved(program.branches(P)))
    t = red.init_vars(P)
    Gp = leg_chain(P).grad
    packed = [a for _, pk in program.groups for prm in pk.prms for a in _leaves(prm)]
    packed += [a for _, prm, _, _ in red.blocks for a in _leaves(prm)]

    ref_F, ref_G = np.zeros(len(bnds)), np.zeros((len(bnds), dim))
    ref_P, ref_g = np.zeros((len(bnds), dim)), np.zeros(red.nvar)
    for idx, pk in program.groups:
        ref_F[idx], ref_G[idx] = pk.residual(P[idx])
    for kind, prm, rows, cols in red.blocks:
        ref_P[rows] = kind.chart_points(prm, t[cols])
        for k, e in enumerate(kind.chart_tangents(prm, t[cols])):
            ref_g[cols[:, k]] = np.einsum("ij,ij->i", Gp[rows], e)

    for call, ref in ((lambda: program.residuals(P), (ref_F, ref_G)),
                      (lambda: (red.points(t), red.chain(t, Gp)), (ref_P, ref_g))):
        out = call()
        assert [x.tobytes() for x in out] == [x.tobytes() for x in ref]
        for x in out:
            assert not any(np.shares_memory(x, a) for a in packed + [P, t, Gp])
            x[...] = 7.0
        assert [x.tobytes() for x in call()] == [x.tobytes() for x in ref]


def test_order_plan_object_accepted():
    from escape_solver.order_search import OrderPlan

    inst = build(make_scenario("halfplane_unit", 6))
    a = solve_fixed_order(inst, OrderPlan(tuple(range(6))), OPTS)
    b = solve_fixed_order(inst, tuple(range(6)), OPTS)
    assert a.length == b.length


def _hessian_case(case):
    """(boundaries, anchored, closed, dim) of a branch-free chain."""
    if case == "plane3d":
        return build(make_scenario("plane3d", 3, 3)).boundaries, True, False, 3
    if case == "opaque":
        return tuple(geo.Line(a, 1.0) for a in (0.0, 1.3, 2.6, 3.9, 5.2)), False, False, 2
    chain = (geo.Line(0.0, 1.0), geo.Circle((0.5, 2.0), 0.5), geo.PointTarget((-1.0, 1.5)),
             geo.Line(2.0, 1.5), geo.Circle((1.0, -2.0), 0.7))
    return chain, True, case == "closed", 2


@pytest.mark.parametrize("case", ["open", "closed", "opaque", "plane3d"])
def test_hessian_matches_differences_of_the_gradient(case):
    _check_hessian(case, eps=0.0)


@pytest.mark.parametrize("case", ["open", "closed", "opaque", "plane3d"])
def test_smoothed_hessian_matches_differences_of_the_gradient(case):
    _check_hessian(case, eps=0.05)


def _dense(red, H):
    """`_assemble_hessian`'s band storage expanded: the Hessian in the reduced
    variables' order, and the rows of the dead slots."""
    n = H.shape[1]
    A = np.zeros((n, n))
    for r in range(H.shape[0]):
        for j in range(n - r):
            A[j + r, j] = A[j, j + r] = H[r, j]
    return A[np.ix_(red.slots, red.slots)], A[red.dead]


def _check_hessian(case, eps):
    bnds, anchored, closed, dim = _hessian_case(case)
    red = _Reduced(_ResidualProgram(bnds, dim))
    rng = np.random.default_rng(11)
    t = red.init_vars(np.array([geo.project(b, p)
                                for b, p in zip(bnds, rng.uniform(-2, 2, (len(bnds), dim)))]))

    def gradient(t):
        return red.chain(t, leg_chain(red.points(t), anchored, closed, eps).grad)

    legs = leg_chain(red.points(t), anchored, closed, eps)
    H, _ = _dense(red, _assemble_hessian(red, legs, red.jet(t)))
    h = 1e-6
    fd = np.column_stack([(gradient(t + h * e) - gradient(t - h * e)) / (2 * h)
                          for e in np.eye(red.nvar)])
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()


def _reference_hessian(red, t, legs):
    """The Hessian of the reduced objective entry by entry: a leg from point a
    to point b with d > 0 adds s_j s_k D_j.(I - u u^T) D_k / d to entry
    (j, k), where D_j is variable j's tangent and s_j is -1 at a, +1 at b and
    0 elsewhere; a curved chart adds Gp . d2p/dt2 to its diagonal.  Also
    returns the scale of each entry's rounding: the sum over its terms of
    |D_j| |D_k| / d, and of |Gp| |d2p/dt2|."""
    tangent, H = {}, np.zeros((red.nvar, red.nvar))
    scale = np.zeros_like(H)
    for kind, prm, rows, cols in red.blocks:
        for k, e in enumerate(kind.chart_tangents(prm, t[cols])):
            for r, i in enumerate(rows):
                tangent[cols[r, k]] = (i, e[r])
        if kind.chart_curvature is not None:
            for r, (i, c) in enumerate(zip(rows, kind.chart_curvature(prm, t[cols]))):
                H[cols[r, 0], cols[r, 0]] += legs.grad[i] @ c
                scale[cols[r, 0], cols[r, 0]] += np.linalg.norm(legs.grad[i]) * np.linalg.norm(c)
    for a, b, d, u in zip(legs.a, legs.b, legs.d, legs.u):
        if not d > 0.0:
            continue
        M = (np.eye(u.size) - np.outer(u, u)) / d
        for j, (pj, ej) in tangent.items():
            for k, (pk, ek) in tangent.items():
                sj, sk = int(pj == b) - int(pj == a), int(pk == b) - int(pk == a)
                H[j, k] += sj * sk * (ej @ M @ ek)
                scale[j, k] += abs(sj * sk) * np.linalg.norm(ej) * np.linalg.norm(ek) / d
    return H, scale


_UNIT = st.floats(-1, 1)
_FLAT = st.sampled_from([
    lambda draw: geo.Line(draw(st.floats(0, 2 * math.pi)), draw(st.sampled_from([0.0, 0.5, 1.5]))),
    lambda draw: geo.Circle(draw(st.tuples(_UNIT, _UNIT)), draw(st.floats(0.2, 2.0))),
    lambda draw: geo.Segment(*draw(st.tuples(_UNIT, _UNIT, st.floats(0.2, 1.0), _UNIT).map(
        lambda v: ((v[0], v[1]), (v[0] + v[2], v[1] + v[3]))))),
    lambda draw: geo.PointTarget(draw(st.tuples(_UNIT, _UNIT)))])


@st.composite
def _hessian_chains(draw):
    """A branch-free chain of lines, circles, segments and point targets in 2D
    or of planes in 3D, on its boundaries' nearest points to drawn ones.  A
    point may repeat its predecessor's boundary and draw, which makes a leg of
    length zero, and a line through the origin may start a zero first leg."""
    dim = draw(st.sampled_from([2, 3]))
    bnds, raw = [], []
    for _ in range(draw(st.integers(1, 6))):
        if bnds and draw(st.booleans()):
            bnds.append(bnds[-1])
            raw.append(raw[-1])
            continue
        if dim == 2:
            bnds.append(draw(_FLAT)(draw))
        else:
            n = np.array(draw(st.tuples(_UNIT, _UNIT, _UNIT))) + (0.0, 0.0, 1.5)
            bnds.append(geo.Plane3(tuple(n / np.linalg.norm(n)), draw(st.floats(-2, 2))))
        raw.append(draw(st.one_of(st.just((0.0,) * dim), st.tuples(*[st.floats(-2, 2)] * dim))))
    return bnds, np.array(raw), dim


@given(chain=_hessian_chains(), ends=st.sampled_from([(True, False), (True, True), (False, False)]),
       eps=st.sampled_from([0.0, 1e-3, 0.05, 1.0]))
def test_banded_hessian_is_the_dense_reference(chain, ends, eps):
    """The banded Hessian, expanded, against the entry-by-entry reference, with
    unit rows on the dead slots; an unsmoothed leg of length zero adds
    nothing.  Each entry may differ by a few roundings of its terms: on a
    short leg along a segment, D.D - (D.u)^2 cancels to rounding of |D|^2,
    which the division by d enlarges."""
    bnds, raw, dim = chain
    program = _ResidualProgram(bnds, dim)
    red = _Reduced(program)
    if red.nvar == 0:
        return
    t = red.init_vars(program.nearest(raw))
    legs = leg_chain(red.points(t), *ends, eps)
    band = _assemble_hessian(red, legs, red.jet(t))
    H, dead = _dense(red, band)
    ref, scale = _reference_hessian(red, t, legs)
    assert np.all(np.abs(H - ref) <= 16 * np.finfo(float).eps * scale)
    assert np.array_equal(dead, np.eye(red.n * red.width)[red.dead])
    # bitwise the pre-jet assembler, also in _duality_gap's call shape: short
    # legs at 1e-12 L with u = 0 (the jet holds no product with u in it)
    shapes = [legs]
    if legs.total > 0.0:
        short = legs.d <= SHORT_LEG * legs.total
        shapes.append(legs._replace(d=np.where(short, 1e-12 * legs.total, legs.d),
                                    u=np.where(short[:, None], 0.0, legs.u)))
    for shape in shapes:
        assert _assemble_hessian(red, shape, red.jet(t)).tobytes() == \
            _pre_jet_hessian(red, t, shape).tobytes()


def test_banded_solve_shifts_a_singular_hessian(monkeypatch):
    """On the order (2, 0, 1, 4, 3) of halfplane_unit N=5, one of those an
    exhaustive search solves, both legs at a point run along its line, so the
    smoothed Hessian has a zero diagonal and no Cholesky factor.  A shifted
    solve still gives a finite step of the shifted system, and no smoothed
    polish raises the length."""
    calls = _record_banded_solves(monkeypatch)
    rises = []
    real_newton = nlp_solver._smoothed_newton

    def newton(red, t, anchored, closed, *a):
        out = real_newton(red, t, anchored, closed, *a)
        before, after = (leg_chain(red.points(x), anchored, closed).total for x in (t, out))
        rises.append(after - before)
        return out

    monkeypatch.setattr(nlp_solver, "_smoothed_newton", newton)
    solve_fixed_order(build(make_scenario("halfplane_unit", 5)), (2, 0, 1, 4, 3), OPTS)
    assert rises and max(rises) <= 0.0
    singular = [c for c in calls if c[3] == 0.0 and c[4] is None]
    assert singular
    for _, H0, *_ in singular:
        red, H, rhs, lam, x = next(c for c in calls if c[1] is H0 and c[3] > 0.0)
        assert x is not None and np.all(np.isfinite(x))
        A = _dense(red, H)[0] + lam * np.eye(red.nvar)
        assert np.abs(A @ x - rhs).max() <= 1e-6 * np.abs(A).max() * np.abs(x).max()


def test_banded_solve_is_the_dense_solve_where_positive_definite():
    """On a circle chain with a point target's dead slot, where the curvature
    makes H indefinite, the banded Cholesky of H + lam I is the dense solve
    where H + lam I is positive definite and None where it is not."""
    bnds = build(make_scenario("circle_interior_nonunique", 8)).boundaries
    bnds = bnds[:4] + (geo.PointTarget((0.3, -0.2)),) + bnds[4:]
    program = _ResidualProgram(bnds, 2)
    red = _Reduced(program)
    t = red.init_vars(program.nearest(np.random.default_rng(7).uniform(-2, 2, (len(bnds), 2))))
    legs = leg_chain(red.points(t))
    H = _assemble_hessian(red, legs, red.jet(t))
    rhs = -red.chain(t, legs.grad)
    A, _ = _dense(red, H)
    low = np.linalg.eigvalsh(A).min()
    assert low < 0.0
    for lam in (0.0, 0.5 * -low, 2.0 * -low, 10.0 * np.abs(A).max()):
        x = _banded_solve(red, H, rhs, lam)
        shifted = A + lam * np.eye(red.nvar)
        if np.linalg.eigvalsh(shifted).min() < 0.0:
            assert x is None
        else:
            ref = np.linalg.solve(shifted, rhs)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def _pre_jet_hessian(red, t, legs):
    """`_assemble_hessian` as it was before the jet: every chart evaluated and
    every tangent product formed at each call, and every leg masked."""
    n, w = red.n, red.width
    T = np.zeros((n + 2, red.dim, w))
    curv = np.zeros(n + 2)
    for kind, prm, rows, cols in red.blocks:
        for k, e in enumerate(kind.chart_tangents(prm, t[cols])):
            T[rows + 1, :, k] = e
        if kind.chart_curvature is not None:
            curv[rows + 1] = np.einsum("ij,ij->i", legs.grad[rows],
                                       kind.chart_curvature(prm, t[cols]))
    first = legs.a[0] + 1 if legs.d.size else 0
    last = first + legs.d.size
    ok = legs.d > 0.0
    d = np.where(ok, legs.d, 1.0)[:, None, None]
    Ta, Tb = T[first:last], T[first + 1:last + 1]
    ua, ub = np.einsum("lxk,lx->lk", Ta, legs.u), np.einsum("lxk,lx->lk", Tb, legs.u)

    def block(De, ue, Df, uf):
        h = (np.einsum("lxk,lxm->lkm", De, Df) - ue[:, :, None] * uf[:, None, :]) / d
        return np.where(ok[:, None, None], h, 0.0)

    diag = np.zeros((n + 2, w, w))
    diag[first:last] += block(Ta, ua, Ta, ua)
    diag[first + 1:last + 1] += block(Tb, ub, Tb, ub)
    diag[:, 0, 0] += curv
    below = np.zeros((n + 1, w, w))
    below[first:last] = -block(Tb, ub, Ta, ua)
    H = np.zeros((2 * w, n * w))
    for k in range(w):
        for m in range(w):
            if k >= m:
                H[k - m, m::w] = diag[1:n + 1, k, m]
            H[w + k - m, m::w][:n - 1] = below[1:n, k, m]
    H[0, red.dead] = 1.0
    return H


def _pre_jet_newton(red, t, anchored, closed, eps0=None):
    """`_smoothed_newton` as it was before the jet, with its banded solve:
    every trial a full `leg_chain`, the chain rule and the Hessian each
    evaluating the charts.  Returns t and the shift of every solve."""
    lams = []

    def banded_solve(H, rhs, lam):
        lams.append(lam)
        A = H.copy()
        A[0] += lam
        b = np.zeros(H.shape[1])
        b[red.slots] = rhs
        _, x, info = scipy.linalg.lapack.dpbsv(A, b, lower=1)
        return x[red.slots] if info == 0 and np.all(np.isfinite(x)) else None

    legs = leg_chain(red.points(t), anchored, closed)
    if not 0.0 < legs.total < math.inf:
        return t, lams
    eps = legs.total / legs.d.size if eps0 is None else eps0 * legs.total
    floor = SMOOTH_FLOOR * legs.total
    while eps >= floor:
        legs = leg_chain(red.points(t), anchored, closed, eps)
        for _ in range(50):
            g = red.chain(t, legs.grad)
            H = _pre_jet_hessian(red, t, legs)
            scale = np.abs(H[0, red.slots]).max()
            for lam in NEWTON_SHIFTS:
                step = banded_solve(H, -g, lam * scale)
                if step is not None and g @ step < 0.0:
                    break
            else:
                break
            decrement = -float(g @ step)
            if not decrement > 1e-3 * eps:
                break
            alpha = 1.0
            while alpha > 1e-6:
                trial = leg_chain(red.points(t + alpha * step), anchored, closed, eps)
                if trial.total <= legs.total - 1e-4 * alpha * decrement:
                    break
                alpha *= 0.5
            else:
                break
            t, legs = t + alpha * step, trial
        eps /= 10.0
    return t, lams


def _newton_start(name, n, m, mode=None, merged=False):
    """(red, t, anchored, closed) from start 1's seeds of a family on its hint
    order; `merged`: of the program and points `_merge_kinks` leaves after a
    first polish, point targets and dead slots included.  Two chains are not
    catalog modes: `name` "mixed" is `_hessian_case`'s chain of lines, circles
    and a point target from a seeded draw, and plane3d's `mode`
    "escape_closed" closes the chain of its planes."""
    closed = mode == "escape_closed"
    if name == "mixed":
        bnds, anchored, _, dim = _hessian_case("open")
        program = _ResidualProgram(bnds, dim)
        P = program.nearest(np.random.default_rng(n).uniform(-2, 2, (len(bnds), dim)))
        red = _Reduced(program)
        return red, red.init_vars(P), anchored, closed
    mode = mode if name != "plane3d" else None
    inst = build(make_scenario(name, n, m, **({"mode": mode} if mode else {})))
    anchored, closed = inst.anchored, inst.closed or closed
    ordered = _Ordered(inst, inst.order_hint or range(inst.size))
    program = _ResidualProgram(ordered.boundaries, inst.dimension)
    P = _build_seeds(inst, ordered, program, OPTS, None)[1]
    if merged:
        P, _ = _polish(program, P, anchored, closed, COLD_EPS[0])
        program, P = _merge_kinks(program, P.copy(), anchored, closed)
    red = _Reduced(program)
    return red, red.init_vars(P), anchored, closed


# the bench's convex instances, the circle families at every first radius the
# solver uses and at 1e-4 times the length, closed and unanchored chains,
# merged programs with dead slots, a chain of several blocks mixing curved and
# affine charts with a dead slot (open and closed), and width 2 on a closed
# chain
_NEWTON_SWEEP = (
    [(name, n, m, None, False, None) for name, n, m in CONVEX_BENCH]
    + [(name, n, m, None, False, eps0) for name, n, m in (("circle_wf2", 7, 2),
                                                         ("circle_interior_nonunique", 30, 1))
       for eps0 in COLD_EPS + (1e-4, SMOOTH_FLOOR)]
    + [("halfplane_unit", 45, 1, "escape_closed", False, None),
       ("circle_interior_nonunique", 30, 1, "escape_closed", False, COLD_EPS[0]),
       ("halfplane_unit", 90, 1, None, True, None),
       ("circle_interior_nonunique", 30, 1, None, True, 1e-4),
       ("mixed", 11, 1, "escape_open", False, COLD_EPS[0]),
       ("mixed", 11, 1, "escape_closed", False, COLD_EPS[0]),
       ("plane3d", 3, 3, "escape_closed", False, None)])


@pytest.mark.parametrize("name,n,m,mode,merged,eps0", _NEWTON_SWEEP,
                         ids=[f"{c[0]}-{c[1]}x{c[2]}-{c[3] or 'default'}{'-merged' * c[4]}-{c[5]}"
                              for c in _NEWTON_SWEEP])
def test_smoothed_newton_is_bitwise_the_pre_jet_loop(monkeypatch, name, n, m, mode, merged, eps0):
    """The loop, its charts evaluated once per iterate and its trials priced
    by their lengths alone, ends at the pre-jet loop's t bit for bit, through
    the same sequence of shifted solves: on the bench's convex instances, the
    circle families at every first radius the solver uses, closed and
    unanchored chains, and merged programs with dead slots."""
    red, t, anchored, closed = _newton_start(name, n, m, mode, merged)
    if merged:
        assert red.dead.any() and not red.packed
    ref, ref_lams = _pre_jet_newton(red, t.copy(), anchored, closed, eps0)
    calls = _record_banded_solves(monkeypatch)
    got = _smoothed_newton(red, t.copy(), anchored, closed, eps0)
    assert got.tobytes() == ref.tobytes()
    assert [c[3] for c in calls] == ref_lams and len(ref_lams) > 10


def test_smoothed_newton_keeps_its_arrays_private():
    """The loop and the assembler work in arrays of the `_Reduced`, but hand
    out none of them: a second polish on the same `_Reduced` from the same
    start returns the first one's t bit for bit, in a new array, and leaves
    the start as it was; two assembled Hessians share no memory, the second
    leaving the first as it was; and the arrays kept for one kind of chain
    do not leak into the Hessian of another."""
    for name, n, m, mode, merged, eps0 in (("circle_wf2", 7, 2, None, False, COLD_EPS[1]),
                                           ("mixed", 11, 1, "escape_closed", False, COLD_EPS[0]),
                                           ("plane3d", 3, 3, None, False, None),
                                           ("halfplane_unit", 90, 1, None, True, None)):
        red, t, anchored, closed = _newton_start(name, n, m, mode, merged)
        start = t.copy()
        first = _smoothed_newton(red, t, anchored, closed, eps0)
        second = _smoothed_newton(red, t, anchored, closed, eps0)
        assert t.tobytes() == start.tobytes()
        assert second.tobytes() == first.tobytes() and not np.shares_memory(first, second)

        def hessian(x):
            return _assemble_hessian(red, leg_chain(red.points(x), anchored, closed, 0.05),
                                     red.jet(x))

        H = hessian(t)
        before = H.copy()
        H2 = hessian(first)
        assert not np.shares_memory(H, H2) and H.tobytes() == before.tobytes()
    # one _Reduced assembling chains of each kind gives what a new one gives
    bnds, _, _, dim = _hessian_case("open")
    program = _ResidualProgram(bnds, dim)
    red = _Reduced(program)
    t = red.init_vars(program.nearest(np.random.default_rng(5).uniform(-2, 2, (len(bnds), dim))))
    for ends in ((True, True), (False, False), (True, False), (True, True)):
        legs = leg_chain(red.points(t), *ends, 0.05)
        fresh = _Reduced(program)
        assert _assemble_hessian(red, legs, red.jet(t)).tobytes() == \
            _assemble_hessian(fresh, legs, fresh.jet(t)).tobytes()


def test_banded_solve_skips_factorizations_that_cannot_succeed(monkeypatch):
    """A band whose shifted diagonal holds an entry <= 0 has no Cholesky
    factor, so `_banded_solve` returns None without calling dpbsv.  On
    circle_wf2 7x2 at each first radius the loop takes the pre-jet loop's
    shifts to the same t with fewer dpbsv calls, and each factorization it
    skipped fails when it is run."""
    factored = []

    def counted(A, b, **kw):
        factored.append(None)
        return scipy.linalg.lapack.dpbsv(A, b, **kw)

    monkeypatch.setattr(nlp_solver, "dpbsv", counted)
    calls = []

    def record(red, H, rhs, lam=0.0):
        before = len(factored)
        x = _banded_solve(red, H, rhs, lam)
        calls.append((red, H, rhs, lam, x, len(factored) > before))
        return x

    monkeypatch.setattr(nlp_solver, "_banded_solve", record)
    for eps0 in COLD_EPS + (1e-4, SMOOTH_FLOOR):
        red, t, anchored, closed = _newton_start("circle_wf2", 7, 2)
        ref, ref_lams = _pre_jet_newton(red, t.copy(), anchored, closed, eps0)
        calls.clear()
        factored.clear()
        got = _smoothed_newton(red, t.copy(), anchored, closed, eps0)
        assert got.tobytes() == ref.tobytes() and [c[3] for c in calls] == ref_lams
        skipped = [c for c in calls if not c[5]]
        assert skipped and len(factored) == len(calls) - len(skipped)
        for red, H, rhs, lam, x, _ in skipped:
            A = H.copy()
            A[0] += lam
            assert x is None and A[0].min() <= 0.0
            b = np.zeros(A.shape[1])
            b[red.slots] = rhs
            assert scipy.linalg.lapack.dpbsv(A, b, lower=1)[2] != 0


LBFGS = nlp_solver.minimize


def _cold_objective(name, n):
    """(objective, start, options) of a cold, unbounded L-BFGS-B polish of a
    circle family: the reduced length from start 0's seeds, with the options
    the retired L-BFGS-B polish ran at."""
    inst = build(make_scenario(name, n))
    ordered = _Ordered(inst, inst.order_hint)
    program = _ResidualProgram(ordered.boundaries, inst.dimension)
    seeds = _build_seeds(inst, ordered, program, SolveOptions(multistart=1), None)
    red = _Reduced(program)

    def fun(t):
        legs = leg_chain(red.points(t), inst.anchored, inst.closed)
        return legs.total, red.chain(t, legs.grad)

    options = {"maxiter": 30000, "ftol": 1e-18, "gtol": 1e-13, "maxcor": 40}
    return fun, red.init_vars(program.nearest(seeds[0])), options


def _lbfgs_calls(monkeypatch, name, n, m=1, multistart=1, assignment=None):
    """(objective, start, options) of every L-BFGS-B call of one solve, with
    branches free, uniform ("uniform", j) or alternating ("alternating", j)."""
    calls = []

    def record(fun, x0, **options):
        calls.append((fun, np.array(x0), options))
        return LBFGS(fun, x0, **options)

    monkeypatch.setattr(nlp_solver, "minimize", record)
    inst = build(make_scenario(name, n, m))
    order, opts = inst.order_hint or tuple(range(inst.size)), SolveOptions(multistart=multistart)
    if assignment is None:
        solve_fixed_order(inst, order, opts)
    elif assignment[0] == "uniform":
        solve_branch_strategies(inst, opts, order)
    else:
        solve_fixed_order(inst, order, opts, branch_assignment=tuple(
            (i + assignment[1]) % 2 for i in range(inst.size)))
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name,n,m,assignment,penalty", [
    ("circle_interior_nonunique", 30, 1, None, False),
    ("circle_wf2", 12, 4, None, False),
    ("circle_plus_segment", 12, 1, None, True),
    ("circle_plus_segment", 12, 1, ("uniform", 1), False),
    ("circle_plus_segment", 12, 1, ("alternating", 0), False)])
def test_only_the_penalty_stage_takes_lbfgs(monkeypatch, name, n, m, assignment, penalty):
    """Every polish, on circles and on segment boxes alike, is the smoothed
    Newton; the one L-BFGS-B call left is start 0's penalty stage on a free
    product solve."""
    calls = _lbfgs_calls(monkeypatch, name, n, m, multistart=2, assignment=assignment)
    stage = {"maxiter": 250, "ftol": 1e-14, "gtol": 1e-10, "maxcor": 20}
    assert [options for *_, options in calls] == ([stage] if penalty else [])


def _same_as_scipy(fun, x0, options):
    """Run the driver and scipy's L-BFGS-B on one problem, assert that x, fun,
    nit and nfev are bitwise equal, and return scipy's result."""
    ours = LBFGS(fun, x0, **options)
    ref = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", options=options)
    assert ours.x.tobytes() == ref.x.tobytes()
    assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (ours.nit, ours.nfev) == (ref.nit, ref.nfev)
    return ref


def test_lbfgs_driver_matches_scipy_on_a_circle_polish():
    assert _same_as_scipy(*_cold_objective("circle_interior_02", 8)).status == 0


def test_lbfgs_driver_matches_scipy_on_penalty_stages(monkeypatch):
    # start 0's one penalty stage here stops at maxiter
    calls = _lbfgs_calls(monkeypatch, "strip_middle_product", 20, multistart=2)
    assert [_same_as_scipy(*c).nit for c in calls] == [250]
    calls = _lbfgs_calls(monkeypatch, "circle_plus_segment", 12, multistart=2)
    assert len(calls) == 1
    _same_as_scipy(*calls[0])


def test_lbfgs_driver_matches_scipy_on_a_failed_line_search():
    # the cold L-BFGS-B of this family ends at a kink where no step decreases
    assert _same_as_scipy(*_cold_objective("circle_interior_nonunique", 8)).message.startswith(
        "ABNORMAL")


def test_lbfgs_driver_refuses_a_gradient_of_the_wrong_size():
    with pytest.raises(ValueError, match="gradient"):
        LBFGS(lambda x: (0.0, np.zeros(3)), np.zeros(2))
