import xml.etree.ElementTree as ET

import numpy as np
import pytest

from escape_solver import geometry as geo
from escape_solver.analysis import convergence_study
from escape_solver.export import (check_mtz_solution, parse_csv, parse_mtz_text,
                                  to_csv, to_mtz_text, to_svg)
from escape_solver.nlp_solver import SolveOptions, solve_fixed_order
from escape_solver.order_search import MtzModel, build_mtz_model, exhaustive
from escape_solver.scenario import Instance, build, make_scenario

OPTS = SolveOptions(multistart=1)


def _points_instance(pts):
    pts = [tuple(map(float, p)) for p in pts]
    return Instance(name="pts", boundaries=tuple(geo.PointTarget(p) for p in pts),
                    mode="escape_open", dimension=2, start_anchor=(0.0, 0.0),
                    angles=(0.0,) * len(pts), start_index=(0,) * len(pts),
                    orient_index=tuple(range(len(pts))))


def _tiny_solution():
    inst = _points_instance([(0.1234567890123456, 0.7)])
    return inst, solve_fixed_order(inst, (0,), OPTS)


def test_csv_single_point_two_lines():
    _, sol = _tiny_solution()
    text = to_csv(sol)
    lines = text.strip("\r\n").split("\r\n")
    assert len(lines) == 2
    assert lines[0] == "order_index,boundary_index,x,y,residual"


def test_csv_roundtrip_exact():
    _, sol = _tiny_solution()
    rows = parse_csv(to_csv(sol))
    assert float(rows[1][2]) == sol.points()[0][0]
    assert float(rows[1][3]) == sol.points()[0][1]


def test_csv_convergence_report_rows():
    rep = convergence_study("point_unit", [2, 4, 8, 16, 32], opts=OPTS)
    lines = to_csv(rep).strip("\r\n").split("\r\n")
    assert len(lines) == 6


def test_csv_quoting():
    text = to_csv([(1.0, 2.0)])
    assert text.startswith("value,length\r\n")


def test_emitters_are_deterministic():
    inst = build(make_scenario("circle_exterior", 8))
    sol = solve_fixed_order(inst, inst.order_hint, OPTS)
    assert to_csv(sol) == to_csv(sol)
    assert to_svg(sol, inst) == to_svg(sol, inst)
    sol2 = solve_fixed_order(inst, inst.order_hint, OPTS)
    assert to_svg(sol, inst).encode() == to_svg(sol2, inst).encode()


def test_svg_structure_point_ring():
    inst = build(make_scenario("point_unit", 12))
    sol = solve_fixed_order(inst, inst.order_hint, OPTS)
    svg = to_svg(sol, inst)
    ET.fromstring(svg)  # valid XML
    assert svg.count('fill="#cc0000"') >= 12   # targets + escape dots in red
    assert '<polyline' in svg and '#000000' in svg


def test_svg_boundaries_only_without_solution():
    inst = build(make_scenario("halfplane_unit", 6))
    svg = to_svg(None, inst)
    assert '<polyline' not in svg
    assert svg.count('<line') == 6


def test_svg_polyline_vertex_count_matches_family():
    inst = build(make_scenario("halfplane_unit", 720))
    sol = solve_fixed_order(inst, inst.order_hint, OPTS)
    svg = to_svg(sol, inst)
    poly = next(ln for ln in svg.splitlines() if ln.startswith("<polyline"))
    pairs = poly.split('points="')[1].split('"')[0].split()
    assert len(pairs) == 721  # anchor + one vertex per family member


def test_csv_three_dimensional_solution():
    inst = build(make_scenario("plane3d", 2, 2))
    sol = solve_fixed_order(inst, tuple(range(inst.size)), OPTS)
    text = to_csv(sol)
    assert text.splitlines()[0] == "order_index,boundary_index,x,y,z,residual"
    assert len(parse_csv(text)) == inst.size + 1


def test_csv_worm_bound_row():
    from escape_solver.analysis import worm_upper_bound

    inst = build(make_scenario("circle_wf2", 3, 2))
    sol = solve_fixed_order(inst, range(inst.size), OPTS)
    text = to_csv(worm_upper_bound(3.14159, sol))
    rows = parse_csv(text)
    assert rows[0] == ["scenario", "area", "escape_length", "ratio"]
    assert float(rows[1][3]) == pytest.approx(3.14159 / sol.length**2)


def test_mtz_text_declaration_counts():
    rng = np.random.default_rng(0)
    inst = _points_instance(rng.uniform(-1, 1, (3, 2)))
    sol = exhaustive(inst, OPTS)
    text = to_mtz_text(build_mtz_model(inst, sol), inst)
    assert text.count("] binary") == 9
    assert sum(1 for ln in text.splitlines()
               if ln.startswith("u[") and " in " in ln) == 3


def test_mtz_checker_validates_and_rejects():
    rng = np.random.default_rng(1)
    inst = _points_instance(rng.uniform(-1, 1, (4, 2)))
    sol = exhaustive(inst, OPTS)
    model = build_mtz_model(inst, sol)
    text = to_mtz_text(model, inst)
    report = check_mtz_solution(text)
    assert report["feasible"], report["problems"]
    assert abs(report["objective"] - report["stated_objective"]) <= 1e-9
    # corrupt one binary entry: assignment structure breaks
    bad = text.replace("b 1", "b 0", 1)
    assert not check_mtz_solution(bad)["feasible"]
    # corrupt the objective: mismatch flagged
    bad2 = text.replace("OBJVALUE", "OBJVALUE 99.0 #", 1)
    assert not check_mtz_solution(bad2)["feasible"]


def test_mtz_roundtrip_boundaries():
    inst = build(make_scenario("circle_exterior", 4))
    sol = solve_fixed_order(inst, inst.order_hint, OPTS)
    model = build_mtz_model(inst, sol)
    data = parse_mtz_text(to_mtz_text(model, inst))
    assert len(data["boundaries"]) == 4
    assert all(isinstance(b, geo.Circle) for b in data["boundaries"])
    assert data["boundaries"][0].radius == 0.5


def test_mtz_refuses_invalid_model():
    rng = np.random.default_rng(2)
    inst = _points_instance(rng.uniform(-1, 1, (3, 2)))
    sol = exhaustive(inst, OPTS)
    model = build_mtz_model(inst, sol)
    bad_b = [list(r) for r in model.b]
    bad_b[0] = [0, 0, 0]
    broken = MtzModel(b=tuple(map(tuple, bad_b)), u=model.u, c=model.c,
                      points=model.points, boundaries=model.boundaries,
                      objective=model.objective)
    with pytest.raises(ValueError):
        to_mtz_text(broken, inst)


def _reference_mtz_text(model, inst=None):
    """The order-model writer as it was, one write per line."""
    import io

    from escape_solver.export import _boundary_text, _fmt

    model.validate()
    k = model.size
    buf = io.StringIO()
    buf.write(f"MTZ K={k} anchored={int(model.anchored)}\n")
    buf.write("VARS\n")
    for i in range(k):
        for j in range(k):
            buf.write(f"b[{i}][{j}] binary\n")
    for i in range(k):
        buf.write(f"u[{i}] in [0,{k - 1}]\n")
    for i in range(k):
        buf.write(f"x[{i}] free\ny[{i}] free\n")
    for i in range(k):
        for j in range(k):
            buf.write(f"c[{i}][{j}] >= 0\n")
    buf.write("OBJ\n")
    buf.write("c[0][0] + sum_ij b[i][j]*c[i][j]\n")
    buf.write("QCONS\n")
    buf.write("c[i][j]^2 = (x[i]-x[j])^2 + (y[i]-y[j])^2 for all i,j\n")
    for i, b in enumerate(model.boundaries):
        buf.write(f"on[{i}] {_boundary_text(b)}\n")
    buf.write("LCONS\n")
    buf.write("sum_j b[i][j] = 1 for all i\n")
    buf.write("sum_i b[i][j] = 1 for all j\n")
    buf.write("b[i][i] = 0 for all i\n")
    buf.write(f"u[i] - u[j] + 1 <= {k}*(1 - b[i][j]) for i,j >= 1\n")
    buf.write("SOLUTION\n")
    for i, row in enumerate(model.b):
        buf.write("b " + " ".join(str(int(v)) for v in row) + "\n")
    buf.write("u " + " ".join(_fmt(v) for v in model.u) + "\n")
    for i, p in enumerate(model.points):
        buf.write("p " + " ".join(_fmt(c) for c in p) + "\n")
    for row in model.c:
        buf.write("c " + " ".join(_fmt(v) for v in row) + "\n")
    buf.write(f"OBJVALUE {_fmt(model.objective)}\n")
    return buf.getvalue()


def test_mtz_text_is_the_reference_writers_byte_for_byte():
    rng = np.random.default_rng(4)
    insts = [_points_instance(rng.uniform(-1, 1, (k, 2))) for k in (2, 5, 8)]
    insts += [build(make_scenario("circle_exterior", 4)), build(make_scenario("plane3d", 2, 2))]
    for inst in insts:
        sol = solve_fixed_order(inst, inst.order_hint or tuple(range(inst.size))[::-1], OPTS)
        model = build_mtz_model(inst, sol)
        assert to_mtz_text(model, inst).encode() == _reference_mtz_text(model, inst).encode()


def _reference_subtour_check(model):
    """The subtour check as a loop: the first violated (i, j) in row-major order."""
    k, B, u = model.size, np.asarray(model.b), np.asarray(model.u)
    for i in range(1, k):
        for j in range(1, k):
            if i != j and u[i] - u[j] + 1 > k * (1 - B[i, j]) + 1e-9:
                return f"subtour constraint violated at ({i},{j})"
    return None


def test_mtz_validate_reports_the_first_subtour_violation():
    # the cycles 0 -> 1 -> 0, 2 -> 3 -> 2 and 4 -> 5 -> 4: every row and column
    # sums to one, and the positions break (3, 2) and (4, 5)
    b = np.zeros((6, 6), dtype=int)
    for a, c in ((0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)):
        b[a, c] = 1
    model = MtzModel(b=tuple(map(tuple, b)), u=(0.0, 1.0, 2.0, 3.0, 5.0, 4.0),
                     c=((0.0,) * 6,) * 6, points=((0.0, 0.0),) * 6, boundaries=(),
                     objective=0.0)
    with pytest.raises(ValueError, match=r"^subtour constraint violated at \(3,2\)$"):
        model.validate()
    # random successor matrices without self loops, positions on and off the
    # 1e-9 slack, against the loop
    rng = np.random.default_rng(8)
    for _ in range(300):
        k = int(rng.integers(2, 8))
        perm = rng.permutation(k)
        while (perm == np.arange(k)).any():
            perm = rng.permutation(k)
        u = rng.integers(0, k, k) + rng.choice([0.0, 5e-10, -5e-10, 2e-9], k)
        u = np.clip(u, 0.0, k - 1.0)
        model = MtzModel(b=tuple(map(tuple, np.eye(k, dtype=int)[perm])), u=tuple(u),
                         c=((0.0,) * k,) * k, points=((0.0, 0.0),) * k, boundaries=(),
                         objective=0.0)
        expected = _reference_subtour_check(model)
        if expected is None:
            model.validate()
        else:
            with pytest.raises(ValueError) as err:
                model.validate()
            assert str(err.value) == expected
