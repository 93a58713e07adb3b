"""Golden-value and property checks; the CLI verify command and the acceptance
test suite both run this registry.

Each check returns (ok, detail).  Tolerances are fixed here, next to the values
they gate.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .analysis import convergence_study, worm_upper_bound
from .export import check_mtz_solution, to_mtz_text
from .nlp_solver import (NonConvergenceError, SolveOptions, solve_branch_strategies,
                         solve_fixed_order, solve_self_referential)
from .order_search import (build_mtz_model, exhaustive, held_karp,
                           mtz_branch_and_bound, two_opt)
from .path import Polyline, grad_length, length, min_width
from .scenario import (HALFPLANE_EXACT, POINT_EXACT, STRIP_EDGE_REFERENCE,
                       STRIP_FULL_REFERENCE, STRIP_MIDDLE_REFERENCE, Instance,
                       build, make_scenario, scale_spec, transform_spec)

_LADDER = (45, 90, 180, 360, 720)


def _opts(**kw) -> SolveOptions:
    base = dict(multistart=2, seed=0)
    base.update(kw)
    return SolveOptions(**base)


def _point_instance(pts) -> Instance:
    pts = [tuple(map(float, p)) for p in pts]
    return Instance(
        name="seeded_points", boundaries=tuple(geo.PointTarget(p) for p in pts),
        mode="escape_open", dimension=2, start_anchor=(0.0, 0.0),
        angles=(0.0,) * len(pts), start_index=(0,) * len(pts),
        orient_index=tuple(range(len(pts))))


def grid_dp_oracle(inst: Instance, extent: float = 3.2, grid: int = 641) -> float:
    """Independent coarse solve of a fixed-order line family: discretize each
    line and run exact stage-to-stage dynamic programming."""
    ts = np.linspace(-extent, extent, grid)
    stages = []
    for b in inst.boundaries:
        if not isinstance(b, geo.Line):
            raise ValueError("grid oracle handles plain line families")
        stages.append(b.offset * b.normal()[None, :] + ts[:, None] * b.tangent()[None, :])
    cost = np.linalg.norm(stages[0], axis=1) if inst.anchored else np.zeros(grid)
    for prev, cur in zip(stages, stages[1:]):
        d = np.linalg.norm(prev[:, None, :] - cur[None, :, :], axis=2)
        cost = np.min(cost[:, None] + d, axis=0)
    return float(cost.min())


# --------------------------------------------------------------------------
# acceptance checks

def check_halfplane_exact():
    inst = build(make_scenario("halfplane_unit", 720))
    sol = solve_fixed_order(inst, inst.order_hint, _opts())
    err = abs(sol.length - HALFPLANE_EXACT)
    return err <= 1e-3, f"L={sol.length:.6f} target={HALFPLANE_EXACT:.6f} err={err:.2e}"


def check_point_exact():
    inst = build(make_scenario("point_unit", 720))
    sol = solve_fixed_order(inst, inst.order_hint, _opts())
    err = abs(sol.length - POINT_EXACT)
    return err <= 1e-3, f"L={sol.length:.6f} target={POINT_EXACT:.6f} err={err:.2e}"


def check_zalgaller_class2():
    try:
        sol = solve_self_referential(180, _opts())
    except NonConvergenceError as e:
        return False, f"fixed point did not settle: {e}"
    err = abs(sol.length - STRIP_EDGE_REFERENCE)
    # a path narrower than 1 in some direction never leaves a unit strip laid across it
    width, theta = min_width(sol.polyline)
    ok = sol.iterations <= 100 and err <= 1e-2 and width >= 1.0 - 1e-3
    return ok, (f"L={sol.length:.6f} target={STRIP_EDGE_REFERENCE} err={err:.2e} "
                f"iters={sol.iterations} min_width={width:.6f} at theta={theta:.4f}")


def check_circle_segment_tie():
    inst = build(make_scenario("circle_plus_segment", 360))
    arc, seg = solve_branch_strategies(inst, _opts())
    ok = (arc.converged and seg.converged
          and abs(arc.length - seg.length) <= 2e-3
          and abs(arc.length - 1.0) <= 2e-3 and abs(seg.length - 1.0) <= 2e-3)
    return ok, f"L_arc={arc.length:.6f} L_segment={seg.length:.6f}"


def check_interior_circle_tie():
    inst = build(make_scenario("circle_interior_nonunique", 360))
    sol = solve_fixed_order(inst, inst.order_hint, _opts())
    diam = inst.reference_length
    ok = sol.converged and abs(sol.length - diam) <= 1e-2
    return ok, f"L_arc={sol.length:.6f} diameter={diam:.6f} (absolute value recorded)"


def check_strip_wf2_reference():
    inst = build(make_scenario("strip_wf2", 12, 26))
    sol = solve_fixed_order(inst, inst.order_hint, _opts())
    rel = abs(sol.length - STRIP_FULL_REFERENCE) / STRIP_FULL_REFERENCE
    return rel <= 0.02, f"L={sol.length:.6f} reference={STRIP_FULL_REFERENCE} rel={rel:.3%}"


def check_monotone_refinement():
    targets = {"halfplane_unit": HALFPLANE_EXACT, "point_unit": POINT_EXACT,
               "strip_middle": STRIP_MIDDLE_REFERENCE}
    msgs, ok = [], True
    for name, exact in targets.items():
        rep = convergence_study(name, _LADDER, opts=_opts())
        upper_ok = all(L <= exact + 1e-6 for L in rep.lengths())
        ok &= rep.monotone_ok and upper_ok
        msgs.append(f"{name}: monotone={rep.monotone_ok} upper={upper_ok} "
                    f"final={rep.lengths()[-1]:.6f}")
    return ok, "; ".join(msgs)


def check_order_oracles():
    rng = np.random.default_rng(20240901)
    opts = _opts(multistart=1)
    for trial in range(20):
        k = int(rng.integers(4, 8))
        inst = _point_instance(rng.uniform(-1.0, 1.0, (k, 2)))
        se = exhaustive(inst, opts)
        sh = held_karp(inst, opts)
        sb, _ = mtz_branch_and_bound(inst, opts)
        st = two_opt(inst, tuple(range(k)), opts)
        if not (sh.length == se.length and sb.length == se.length
                and st.length >= se.length - 1e-12):
            return False, (f"trial {trial} (K={k}): exhaustive={se.length!r} "
                           f"held_karp={sh.length!r} bnb={sb.length!r} two_opt={st.length!r}")
    return True, "20/20 seeded instances: DP == exhaustive == branch&bound, 2-opt >="


def _central_diff(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(g)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _random_boundary(rng):
    kind = rng.integers(6)
    if kind == 0:
        return geo.Line(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-2, 2))), 2
    if kind == 1:
        return geo.Circle(tuple(rng.uniform(-1, 1, 2)), float(rng.uniform(0.2, 2.0))), 2
    if kind == 2:
        return geo.PointTarget(tuple(rng.uniform(-1, 1, 2))), 2
    if kind == 3:
        a = rng.uniform(-1, 1, 2)
        return geo.Segment(tuple(a), tuple(a + rng.uniform(0.2, 1.0, 2))), 2
    if kind == 4:
        return geo.Product((
            geo.Line(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-2, 2))),
            geo.Line(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-2, 2))))), 2
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return geo.Plane3(tuple(n), float(rng.uniform(-2, 2))), 3


def check_gradient_correctness():
    rng = np.random.default_rng(7)
    worst_b = 0.0
    for _ in range(1000):
        b, dim = _random_boundary(rng)
        p = rng.uniform(-2, 2, dim)
        if isinstance(b, (geo.PointTarget, geo.Segment)) and geo.scaled_residual(b, p) < 0.05:
            p = p + 0.3  # keep clear of the singular locus
        g = geo.grad_boundary(b, p)
        gn = _central_diff(lambda x: geo.eval_boundary(b, x), p.astype(float))
        denom = max(np.linalg.norm(gn), 1e-8)
        worst_b = max(worst_b, np.linalg.norm(g - gn) / denom)
    worst_l = 0.0
    for _ in range(1000):
        npts = int(rng.integers(1, 7))
        dim = 2 if rng.random() < 0.7 else 3
        pts = rng.uniform(-2, 2, (npts, dim))
        anchored = bool(rng.random() < 0.8)
        closed = bool(anchored and rng.random() < 0.3)
        poly = Polyline(tuple(map(tuple, pts)), anchored=anchored, closed=closed)
        g = grad_length(poly).ravel()

        def f(x):
            q = Polyline(tuple(map(tuple, x.reshape(npts, dim))),
                         anchored=anchored, closed=closed)
            return length(q).total

        gn = _central_diff(f, pts.ravel().astype(float))
        worst_l = max(worst_l, np.linalg.norm(g - gn) / max(np.linalg.norm(gn), 1e-8))
    ok = worst_b < 1e-5 and worst_l < 1e-5
    return ok, f"max rel err: boundary={worst_b:.2e} length={worst_l:.2e}"


def check_invariance_suite():
    rng = np.random.default_rng(3)
    motion = geo.RigidMotion(center=tuple(rng.uniform(-0.5, 0.5, 2)),
                             angle=float(rng.uniform(0, 2 * math.pi)),
                             translation=tuple(rng.uniform(-0.5, 0.5, 2)))
    msgs, ok = [], True
    for name, n in (("halfplane_unit", 60), ("circle_exterior", 48), ("point_unit", 90)):
        spec = make_scenario(name, n)
        base = solve_fixed_order(build(spec), spec.order_hint, _opts())
        moved = solve_fixed_order(build(transform_spec(spec, motion)),
                                  spec.order_hint, _opts())
        dm = abs(moved.length - base.length)
        ok &= dm < 1e-6
        scale_ok = True
        for s in (0.5, 2.0):
            scaled = solve_fixed_order(build(scale_spec(spec, s)), spec.order_hint, _opts())
            rel = abs(scaled.length - s * base.length) / (s * base.length)
            scale_ok &= rel < 1e-6
        ok &= scale_ok
        msgs.append(f"{name}: motion d={dm:.1e} scale_ok={scale_ok}")
    spec = make_scenario("circle_wf2", 8, 2)
    sol = solve_fixed_order(build(spec), range(16), _opts())
    wb = worm_upper_bound(spec.region_area, sol)
    sol2 = solve_fixed_order(build(scale_spec(spec, 2.0)), range(16), _opts())
    wb2 = worm_upper_bound(spec.region_area * 4.0, sol2)
    dr = abs(wb.ratio - wb2.ratio)
    ok &= dr < 1e-9
    msgs.append(f"worm ratio drift={dr:.1e}")
    return ok, "; ".join(msgs)


def check_mtz_export():
    rng = np.random.default_rng(11)
    msgs, ok = [], True
    for k in (3, 5):
        inst = _point_instance(rng.uniform(-1.0, 1.0, (k, 2)))
        sol = exhaustive(inst, _opts(multistart=1))
        model = build_mtz_model(inst, sol)
        text = to_mtz_text(model, inst)
        n_bin = text.count("] binary")
        n_aux = sum(1 for ln in text.splitlines() if ln.startswith("u[") and " in " in ln)
        report = check_mtz_solution(text, obj_tol=1e-9)
        ok &= n_bin == k * k and n_aux == k and report["feasible"]
        ok &= all(0.0 <= u <= k - 1 for u in model.u)
        msgs.append(f"K={k}: binaries={n_bin} aux={n_aux} checker={report['feasible']} "
                    f"obj={report['objective']:.9f}")
        if report["problems"]:
            msgs.append(str(report["problems"]))
    return ok, "; ".join(msgs)


def check_closed_path():
    open_inst = build(make_scenario("point_unit", 360))
    open_sol = solve_fixed_order(open_inst, open_inst.order_hint, _opts())
    closed_inst = build(make_scenario("point_unit", 360, mode="escape_closed"))
    closed_sol = solve_fixed_order(closed_inst, closed_inst.order_hint, _opts())
    ok = closed_sol.converged and closed_sol.length > open_sol.length
    return ok, (f"closed L={closed_sol.length:.6f} (reference value) "
                f"> open L={open_sol.length:.6f}")


def check_opaque_tangent():
    inst = build(make_scenario("opaque_circle_tangent", 360))
    sol = solve_fixed_order(inst, inst.order_hint, _opts())
    in_range = math.pi <= sol.length <= 2 * math.pi
    small = build(make_scenario("opaque_circle_tangent", 12))
    mine = solve_fixed_order(small, small.order_hint, _opts())
    oracle = grid_dp_oracle(small)
    agree = abs(mine.length - oracle) <= 1e-2
    ok = sol.converged and in_range and agree
    return ok, (f"L(360)={sol.length:.6f} in [pi, 2pi]={in_range}; "
                f"L(12)={mine.length:.6f} oracle={oracle:.6f} agree={agree}")


CHECKS = {
    "halfplane_unit": check_halfplane_exact,
    "point_unit": check_point_exact,
    "zalgaller_class2": check_zalgaller_class2,
    "circle_plus_segment": check_circle_segment_tie,
    "circle_interior_nonunique": check_interior_circle_tie,
    "strip_wf2": check_strip_wf2_reference,
    "monotone_refinement": check_monotone_refinement,
    "order_oracles": check_order_oracles,
    "gradient_correctness": check_gradient_correctness,
    "invariance_suite": check_invariance_suite,
    "mtz_export": check_mtz_export,
    "closed_path": check_closed_path,
    "opaque_circle_tangent": check_opaque_tangent,
}


def run_checks(only: str | None = None, report=print) -> bool:
    names = [n for n in CHECKS if only is None or only in n]
    if not names:
        raise KeyError(f"no checks match {only!r}")
    all_ok = True
    for name in names:
        try:
            ok, detail = CHECKS[name]()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"crashed: {type(e).__name__}: {e}"
        all_ok &= ok
        report(f"{'PASS' if ok else 'FAIL'}  {name:28s} {detail}")
    return all_ok
