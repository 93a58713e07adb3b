import math

import numpy as np
import pytest

from escape_solver.analysis import (convergence_study, detect_nonuniqueness,
                                    mirrored_solution, worm_upper_bound)
from escape_solver.nlp_solver import SolveOptions, solve_branch_strategies, \
    solve_fixed_order
from escape_solver.scenario import build, make_scenario

OPTS = SolveOptions(multistart=1)


def _solve(name, n, **kw):
    inst = build(make_scenario(name, n, **kw))
    return inst, solve_fixed_order(inst, inst.order_hint or range(inst.size), OPTS)


def test_worm_bound_simple_values():
    _, sol = _solve("halfplane_unit", 6)
    wb = worm_upper_bound(4.0, sol.__class__(**{**sol.__dict__, "length": 2.0}))
    assert wb.ratio == pytest.approx(1.0)
    wb = worm_upper_bound(1.0, sol.__class__(**{**sol.__dict__, "length": 1.0}))
    assert wb.ratio == pytest.approx(1.0)


def test_worm_bound_rejects_bad_inputs():
    _, sol = _solve("halfplane_unit", 6)
    with pytest.raises(ValueError):
        worm_upper_bound(-1.0, sol)
    bad = sol.__class__(**{**sol.__dict__, "converged": False})
    with pytest.raises(ValueError):
        worm_upper_bound(1.0, bad)


def test_worm_bound_from_triangle_run():
    inst = build(make_scenario("triangle_equilateral", 8, 3))
    sol = solve_fixed_order(inst, range(inst.size), OPTS)
    wb = worm_upper_bound(inst.region_area, sol)
    assert wb.area == pytest.approx(math.sqrt(3) / 4)
    assert wb.ratio > 0


def test_convergence_ladder_checks():
    with pytest.raises(ValueError):
        convergence_study("halfplane_unit", [8, 8])
    with pytest.raises(ValueError):
        convergence_study("halfplane_unit", [8, 12])


def test_convergence_small_ladder_monotone():
    rep = convergence_study("halfplane_unit", [6, 12, 24], opts=OPTS)
    assert rep.monotone_ok
    assert rep.lengths() == tuple(sorted(rep.lengths()))
    assert [e[0] for e in rep.entries] == [6, 12, 24]


def test_detect_nonuniqueness_identical_solutions():
    _, sol = _solve("halfplane_unit", 8)
    out = detect_nonuniqueness([sol, sol], tol=1e-3)
    assert out["count"] == 1


def test_detect_nonuniqueness_branch_strategies():
    inst = build(make_scenario("circle_plus_segment", 90))
    arc, seg = solve_branch_strategies(inst, OPTS)
    out = detect_nonuniqueness([arc, seg], tol=1e-3)
    assert out["count"] == 2


def test_detect_nonuniqueness_mirror_twin():
    inst, sol = _solve("circle_interior_nonunique", 90)
    twin = mirrored_solution(inst, sol)
    # reflection maps the family onto itself, so the twin ties the length
    assert twin.converged
    assert twin.length == pytest.approx(sol.length, abs=1e-12)
    out = detect_nonuniqueness([sol, twin], tol=1e-2)
    assert out["count"] == 2


def test_detect_needs_at_least_two():
    _, sol = _solve("halfplane_unit", 8)
    with pytest.raises(ValueError):
        detect_nonuniqueness([sol])
