import io
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from escape_solver import geometry as geo
from escape_solver.analysis import ConvergenceReport, WormBound, convergence_study, worm_upper_bound
from escape_solver.export import (_fmt, check_mtz_solution, parse_csv,
                                  parse_mtz_text, to_csv, to_mtz_text, to_svg)
from escape_solver.nlp_solver import Solution, SolveOptions, solve_fixed_order
from escape_solver.order_search import MtzModel, build_mtz_model, exhaustive
from escape_solver.path import Polyline
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


def test_mtz_checker_rejects_nan():
    """Every tolerance test fails on a NaN: distance terms and an objective
    of NaN, a NaN point (reported, not raised) and a NaN auxiliary."""
    inst = build(make_scenario("point_unit", 3))
    model = build_mtz_model(inst, exhaustive(inst, OPTS))
    assert check_mtz_solution(to_mtz_text(model, inst))["feasible"]
    nan = math.nan
    points = list(model.points)
    points[1] = (nan, points[1][1])
    for bad, expected in (
            (replace(model, c=((nan,) * 3,) * 3, objective=nan),
             ["distance terms do not match the points",
              "objective mismatch: stated nan, recomputed nan"]),
            (replace(model, points=tuple(points)),
             ["distance terms do not match the points", "point 1 is not finite"]),
            (replace(model, u=(0.0, nan, 2.0)), ["auxiliaries out of range"])):
        report = check_mtz_solution(to_mtz_text(bad, inst))
        assert not report["feasible"] and report["problems"] == expected


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


@pytest.fixture(scope="module")
def solved():
    """(instance, solution) on the benchmark's convex instances (halfplane_unit
    90, strip_middle 60, the unanchored opaque_circle_tangent 45, plane3d
    3x3 in 3D), a closed family, a product family and a family of points."""
    cases = [("halfplane_unit", 90, 1, {}), ("strip_middle", 60, 1, {}),
             ("opaque_circle_tangent", 45, 1, {}), ("plane3d", 3, 3, {}),
             ("circle_exterior", 12, 1, {"mode": "escape_closed"}),
             ("strip_middle_product", 20, 1, {})]
    insts = [build(make_scenario(name, n, m, **kw)) for name, n, m, kw in cases]
    insts.append(_points_instance(np.random.default_rng(5).uniform(-1, 1, (12, 2))))
    return [(inst, solve_fixed_order(inst, inst.order_hint or tuple(range(inst.size)), OPTS))
            for inst in insts]


def _reference_boundary_text(b) -> str:
    """A boundary's order-model text as it was, one `_fmt` call per field."""
    text = " | ".join(" ".join([f.tag, *map(_fmt, f.fields())]) for f in b.factors)
    return "product " + text if isinstance(b, geo.Product) else text


def _reference_mtz_text(model, inst=None):
    """The order-model writer as it was, one write per line."""
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
        buf.write(f"on[{i}] {_reference_boundary_text(b)}\n")
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


def test_mtz_text_is_the_reference_writers_byte_for_byte(solved):
    rng = np.random.default_rng(4)
    insts = [_points_instance(rng.uniform(-1, 1, (k, 2))) for k in (2, 5, 8)]
    insts += [build(make_scenario("circle_exterior", 4)), build(make_scenario("plane3d", 2, 2))]
    cases = [(inst, solve_fixed_order(inst, inst.order_hint or tuple(range(inst.size))[::-1],
                                      OPTS)) for inst in insts]
    for inst, sol in cases + solved:
        model = build_mtz_model(inst, sol)
        assert to_mtz_text(model, inst).encode() == _reference_mtz_text(model, inst).encode()


@pytest.mark.parametrize("name, n, m", [("halfplane_unit", 90, 1), ("strip_middle_product", 20, 1),
                                        ("circle_plus_segment", 8, 1), ("plane3d", 3, 3)])
def test_mtz_boundary_lines_are_the_per_field_text(name, n, m):
    """Every boundary field of a model is formatted by one `_fmt_each` call;
    the lines are those of one `_fmt` call per field, products included."""
    inst = build(make_scenario(name, n, m))
    sol = solve_fixed_order(inst, inst.order_hint or tuple(range(inst.size)), OPTS)
    model = build_mtz_model(inst, sol)
    text = to_mtz_text(model, inst)
    assert text.encode() == _reference_mtz_text(model, inst).encode()
    lines = [ln for ln in text.splitlines() if ln.startswith("on[")]
    assert lines == [f"on[{i}] {_reference_boundary_text(b)}"
                     for i, b in enumerate(model.boundaries)]
    assert all((" | " in line) == isinstance(b, geo.Product)
               for line, b in zip(lines, model.boundaries))


def test_mtz_text_prints_each_bit_pattern_as_the_reference_does():
    """Signed zeros, infinities, NaNs, subnormals and repeats, as numpy scalars,
    Python floats and ints: -0.0 == 0.0, so a writer that formatted each
    distinct float value once would print one of them wrongly."""
    nan, inf = float("nan"), float("inf")
    c = ((0.0, -0.0, np.float64(-0.0), inf),
         (np.float64(5e-324), -5e-324, 2.2250738585072014e-308, nan),
         (np.float64(0.1), 0.1, -np.inf, np.copysign(np.nan, -1.0)),
         (1, np.float32(0.1), 1e16, np.float64(0.0)))
    b = np.zeros((4, 4), dtype=int)
    b[[0, 1, 2, 3], [1, 2, 3, 0]] = 1
    model = MtzModel(b=tuple(map(tuple, b)), u=(np.float64(-0.0), 1.0, np.float64(2.0), 3),
                     c=c, points=((-0.0, 0.0), (np.float64(-0.0), 1e-310), (inf, -inf), (nan, 1.5)),
                     boundaries=(), objective=np.float64(-0.0), anchored=False)
    text = to_mtz_text(model)
    assert text.encode() == _reference_mtz_text(model).encode()
    assert "\nc 0 -0 -0 inf\n" in text and "\nc 1 0.10000000149011612 10000000000000000 0\n" in text
    assert "\nu -0 1 2 3\n" in text and text.endswith("\nOBJVALUE -0\n")


def _reference_csv_field(v) -> str:
    s = _fmt(v) if isinstance(v, float) else str(v)
    if any(ch in s for ch in ',"\r\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _reference_csv(obj) -> str:
    """The CSV writer as it was, one field at a time."""
    if isinstance(obj, Solution):
        dim3 = obj.polyline.dim == 3
        rows = [["order_index", "boundary_index", "x", "y"] + (["z"] if dim3 else [])
                + ["residual"]]
        pts = obj.points()
        res = obj.residuals if obj.residuals else (float(obj.max_residual),) * len(obj.order)
        for pos, h in enumerate(obj.order):
            rows.append([pos, h, *[float(c) for c in pts[pos]], float(res[pos])])
    elif isinstance(obj, ConvergenceReport):
        rows = [["n", "length", "max_residual", "seconds"]]
        rows += [[n, float(L), float(r), float(t)] for (n, L, r, t) in obj.entries]
    elif isinstance(obj, WormBound):
        rows = [["scenario", "area", "escape_length", "ratio"],
                [obj.scenario, obj.area, obj.escape_length, obj.ratio]]
    else:
        rows = [["value", "length"]] + [[float(a), float(b)] for a, b in obj]
    return "\r\n".join(",".join(_reference_csv_field(v) for v in row) for row in rows) + "\r\n"


def _reference_svg(solution, inst) -> str:
    """The SVG writer as it was: every number formatted where it is written,
    and lines drawn from numpy vectors."""
    def extent(f):
        return [tuple(f.offset * f.normal())] if isinstance(f, geo.Line) else f.svg_extent()

    def shape(f, reach):
        if not isinstance(f, geo.Line):
            return f.svg_shape(reach)
        mid, v = f.offset * f.normal(), f.tangent()
        a, b = mid - reach * v, mid + reach * v
        return "line", (("x1", a[0]), ("y1", a[1]), ("x2", b[0]), ("y2", b[1])), "boundary"

    style = {"boundary": 'fill="none" stroke="#cc0000" stroke-width="0.01"',
             "path": 'fill="none" stroke="#000000" stroke-width="0.015"',
             "start": 'fill="#000000"', "escape": 'fill="#cc0000"'}
    anchor = np.asarray(inst.start_anchor[:2] if inst.start_anchor else (0.0, 0.0))
    pts = solution.points() if solution is not None else np.zeros((0, 2))
    pts2 = pts[:, :2] + anchor if pts.size else pts.reshape(0, 2)
    xs, ys = [anchor[0]], [anchor[1]]
    if pts2.size:
        xs += list(pts2[:, 0])
        ys += list(pts2[:, 1])
    ext = [q for b in inst.boundaries for f in b.factors for q in extent(f)]
    xs += [x for x, _ in ext]
    ys += [y for _, y in ext]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    pad = 0.05 * span
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = (max(xs) - min(xs)) + 2 * pad, (max(ys) - min(ys)) + 2 * pad
    buf = io.StringIO()
    buf.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    buf.write(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="600" height="{_fmt(600 * h / w)}" '
              f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">\n')
    buf.write(f'<g transform="translate(0 {_fmt(2 * y0 + h)}) scale(1 -1)">\n')
    reach = math.hypot(w, h)
    shapes = [shape(f, reach) for b in inst.boundaries for f in b.factors]
    for element, attrs, kind in filter(None, shapes):
        fields = " ".join(f'{k}="{_fmt(v)}"' for k, v in attrs)
        buf.write(f"<{element} {fields} {style[kind]}/>\n")
    if pts2.shape[0]:
        coords = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in pts2)
        chain = (f"{_fmt(anchor[0])},{_fmt(anchor[1])} " if inst.anchored else "") + coords
        if inst.closed:
            chain += f" {_fmt(anchor[0])},{_fmt(anchor[1])}"
        buf.write(f'<polyline points="{chain}" {style["path"]}/>\n')
        for p in pts2:
            buf.write(f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="0.012" '
                      f'{style["escape"]}/>\n')
    if inst.anchored:
        buf.write(f'<circle cx="{_fmt(anchor[0])}" cy="{_fmt(anchor[1])}" r="0.018" '
                  f'{style["start"]}/>\n')
    buf.write("</g>\n</svg>\n")
    return buf.getvalue()


def test_csv_is_the_reference_writers_byte_for_byte(solved):
    for inst, sol in solved:
        assert to_csv(sol).encode() == _reference_csv(sol).encode()
    _, sol = solved[-1]
    tables = [convergence_study("point_unit", [2, 4], opts=OPTS), worm_upper_bound(3.14159, sol),
              WormBound(0.5, 2.0, 0.125, 'a "quoted",\r\nname'),
              [(0.1, -0.0), (np.float64(2.5), 1)]]
    for table in tables:
        assert to_csv(table).encode() == _reference_csv(table).encode()


def test_svg_is_the_reference_writers_byte_for_byte(solved):
    for inst, sol in solved:
        assert to_svg(sol, inst).encode() == _reference_svg(sol, inst).encode()
        assert to_svg(None, inst).encode() == _reference_svg(None, inst).encode()


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


def test_mtz_checker_reports_every_subtour_violation_in_row_major_order():
    """Against the checker's double loop over (i, j), on files whose b rows and
    u line are replaced by random successor matrices and positions."""
    def reference(k, B, u):
        return [f"subtour inequality broken at ({i},{j})" for i in range(1, k)
                for j in range(1, k) if i != j and u[i] - u[j] + 1 > k * (1 - B[i, j]) + 1e-9]

    rng = np.random.default_rng(9)
    for _ in range(300):
        k = int(rng.integers(2, 8))
        b = np.roll(np.eye(k, dtype=int), 1, axis=1)
        model = MtzModel(b=tuple(map(tuple, b)), u=tuple(map(float, range(k))),
                         c=((0.0,) * k,) * k, points=((0.0, 0.0),) * k, boundaries=(),
                         objective=0.0, anchored=False)
        perm = rng.permutation(k)
        u = np.clip(rng.integers(0, k, k) + rng.choice([0.0, 5e-10, -5e-10, 2e-9], k), 0, k - 1)
        rows = iter(np.eye(k, dtype=int)[perm])
        lines = ["b " + " ".join(map(str, next(rows))) if ln.startswith("b ") else
                 "u " + " ".join(map(repr, u.tolist())) if ln.startswith("u ") else ln
                 for ln in to_mtz_text(model).splitlines()]
        text = "\n".join(lines) + "\n"
        data = parse_mtz_text(text)
        found = [p for p in check_mtz_solution(text)["problems"] if p.startswith("subtour")]
        assert found == reference(k, data["b"], data["u"])


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _same_bits(got, want) -> bool:
    """Equal bit for bit, but any NaN for a NaN: a NaN prints as "nan", which
    keeps neither its sign nor its payload."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


@st.composite
def _mtz_models(draw):
    """A valid order model: a drawn cycle, positions along it from the depot
    moved by under half the 1e-9 slack (so a signed zero can start it), and
    any floats for the distances, points and objective."""
    k, dim = draw(st.integers(2, 7)), draw(st.sampled_from([2, 3]))
    cycle = draw(st.permutations(range(k)))
    b = np.zeros((k, k), dtype=int)
    b[cycle, np.roll(cycle, -1)] = 1
    jitter = draw(st.lists(st.floats(-4e-10, 4e-10), min_size=k, max_size=k))
    start = cycle.index(0)
    u = [0.0] * k
    for pos, node in enumerate(cycle[start:] + cycle[:start]):
        u[node] = pos + jitter[pos] if pos else jitter[pos]
    block = st.lists(st.tuples(*[_FLOATS] * k), min_size=k, max_size=k)
    points = st.lists(st.tuples(*[_FLOATS] * dim), min_size=k, max_size=k)
    return MtzModel(b=tuple(map(tuple, b.tolist())), u=tuple(u), c=tuple(draw(block)),
                    points=tuple(draw(points)), boundaries=(), objective=draw(_FLOATS),
                    anchored=draw(st.booleans()))


@given(model=_mtz_models())
def test_mtz_text_round_trips_bitwise(model):
    data = parse_mtz_text(to_mtz_text(model))
    assert (data["k"], data["anchored"]) == (model.size, model.anchored)
    assert np.array_equal(data["b"], model.b)
    for key in ("u", "points", "c"):
        assert _same_bits(data[key], getattr(model, key)), key
    assert _same_bits(data["objective"], model.objective)


@st.composite
def _solutions(draw):
    """A solution on drawn finite points (a polyline refuses others), with
    any floats as residuals or, without residuals, as the maximum one."""
    n, dim = draw(st.integers(1, 6)), draw(st.sampled_from([2, 3]))
    pts = draw(st.lists(st.tuples(*[_FINITE] * dim), min_size=n, max_size=n))
    residuals = draw(st.one_of(st.just(()), st.lists(_FLOATS, min_size=n, max_size=n).map(tuple)))
    return Solution(polyline=Polyline(tuple(pts)), order=tuple(draw(st.permutations(range(n)))),
                    length=0.0, max_residual=draw(_FLOATS), converged=True, residuals=residuals)


@given(sol=_solutions())
def test_csv_round_trips_bitwise(sol):
    rows = parse_csv(to_csv(sol))
    pts, n = sol.points(), len(sol.order)
    res = sol.residuals or (sol.max_residual,) * n
    assert len(rows) == n + 1
    assert [[int(r[0]), int(r[1])] for r in rows[1:]] == [[pos, h] for pos, h in enumerate(sol.order)]
    assert _same_bits([[float(v) for v in r[2:-1]] for r in rows[1:]], pts)
    assert _same_bits([float(r[-1]) for r in rows[1:]], res)
