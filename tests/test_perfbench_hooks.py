"""The benchmark's traced run wraps library functions by name; installing and
removing its wrappers here makes a rename fail in the test suite instead."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from escape_solver import geometry, nlp_solver, order_search, scenario

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture
def run(monkeypatch):
    # run.py pins thread variables and extends sys.path when it loads
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", [str(RUN_PY.parent)] + sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_install_and_unpatch(run):
    hooked = [(geometry, "project"), (geometry, "scaled_residual"),
              (scenario, "eval_boundary"), (nlp_solver, "minimize"),
              (order_search, "solve_fixed_order"), (order_search, "_held_karp_order")]
    before = [getattr(m, name) for m, name in hooked]
    tracer = run.Tracer()
    try:
        run.install(tracer)
        assert all(getattr(m, name) is not f for (m, name), f in zip(hooked, before))
    finally:
        tracer.unpatch()
    assert all(getattr(m, name) is f for (m, name), f in zip(hooked, before))


def test_benchmark_hooks_see_the_polish(run):
    """The wrappers replace module attributes, so the solver must look L-BFGS-B
    up there at call time; a name bound at import would leave the per-layer
    trace at zero without failing.  L-BFGS-B runs in start 0's penalty stage
    on this product family.  The Newton steps solve banded systems by LAPACK, so the span the
    benchmark keeps around SuperLU stays empty."""
    inst = scenario.build(scenario.make_scenario("circle_plus_segment", 8))
    tracer = run.Tracer()
    try:
        run.install(tracer)
        nlp_solver.solve_fixed_order(inst, inst.order_hint or range(inst.size),
                                     nlp_solver.SolveOptions(multistart=1))
    finally:
        tracer.unpatch()
    layers = tracer.layer_totals(tracer.run)
    assert layers["nlp_solver.lbfgs"][0] > 0 and layers["nlp_solver.splu"][0] == 0
    assert tracer.counts[tracer.run]["nlp_solver.lbfgs_nfev"] > 0


def test_benchmark_hooks_see_the_order_layer(run):
    """The DP-state count reads the node count off the DP's first positional
    argument, and every re-solve must go through the module attribute
    `order_search.solve_fixed_order` to show up as an `nlp_solver` span."""
    k = 6
    inst = run.make_instance(("points", k), 101)
    opts = nlp_solver.SolveOptions(multistart=1)
    tracer = run.Tracer()
    try:
        run.install(tracer)
        tracer.wrap_count(order_search, "_held_karp_order", "dp_calls")
        sols = [order_search.held_karp(inst, opts), order_search.solve_alternating(inst, opts)]
    finally:
        tracer.unpatch()
    counts = tracer.counts[tracer.run]
    assert counts["dp_calls"] >= 2
    assert counts["order_search.dp_states"] == counts["dp_calls"] * k * 2 ** k
    # each strategy's first solve and every re-solve is one span
    assert all(sol.iterations >= 2 for sol in sols)
    assert tracer.layer_totals(tracer.run)["nlp_solver"][0] == sum(s.iterations for s in sols)
