"""Serialization: SVG figures, CSV tables, and the order-model text format.

Every emitter is deterministic byte-for-byte for identical inputs; numbers are
printed with 17 significant digits so binary64 values survive a round trip.
Blocks of numbers are formatted from arrays by `_fmt_each`, which prints each
distinct value once and gives the same text as `_fmt` on every entry.
"""

from __future__ import annotations

import csv
import io
import math
import re
from itertools import islice

import numpy as np

from . import geometry as geo
from .analysis import ConvergenceReport, WormBound
from .nlp_solver import Solution
from .order_search import MtzModel, subtour_violations
from .scenario import Instance

_F = "{:.17g}"


def _fmt(x: float) -> str:
    return _F.format(float(x))


def _fmt_each(values) -> list:
    """`_fmt` of every entry of a float array, in C order.  Each distinct value
    is formatted once, keyed on its bits: -0.0 equals 0.0 but prints as -0."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    text = np.array(list(map(_F.format, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def _lines(head: str, sep: str, values, end: str = "") -> list:
    """Per row of a 2-D block, the line `head`, its numbers joined by `sep`, `end`."""
    values = np.asarray(values, dtype=np.float64)
    if not len(values):
        return []
    text, m = _fmt_each(values), values.shape[1]
    return [head + sep.join(text[i * m:(i + 1) * m]) + end for i in range(values.shape[0])]


# --------------------------------------------------------------------------
# CSV (RFC 4180)

def _csv_field(v) -> str:
    if isinstance(v, float):
        return _fmt(v)  # digits, sign, point, exponent, nan or inf: nothing to quote
    s = str(v)
    if type(v) is int or isinstance(v, np.integer):
        return s
    if any(ch in s for ch in ',"\r\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _csv_rows(rows) -> str:
    return "\r\n".join(",".join(_csv_field(v) for v in row) for row in rows) + "\r\n"


def to_csv(obj) -> str:
    """Solution -> one row per escape point; reports -> one row per entry."""
    if isinstance(obj, Solution):
        dim3 = obj.polyline.dim == 3
        head = ["order_index", "boundary_index", "x", "y"] + (["z"] if dim3 else []) \
            + ["residual"]
        n = len(obj.order)
        res = obj.residuals if obj.residuals else (float(obj.max_residual),) * n
        values = np.column_stack([obj.points()[:n], np.asarray(res[:n], dtype=np.float64)])
        return _csv_rows([head]) + "".join(
            f"{pos},{_csv_field(h)},{line}\r\n"
            for pos, (h, line) in enumerate(zip(obj.order, _lines("", ",", values))))
    if isinstance(obj, ConvergenceReport):
        rows = [["n", "length", "max_residual", "seconds"]]
        rows += [[n, float(L), float(r), float(t)] for (n, L, r, t) in obj.entries]
        return _csv_rows(rows)
    if isinstance(obj, WormBound):
        rows = [["scenario", "area", "escape_length", "ratio"],
                [obj.scenario, obj.area, obj.escape_length, obj.ratio]]
        return _csv_rows(rows)
    if isinstance(obj, (list, tuple)):  # generic (value, length) sweep table
        rows = [["value", "length"]] + [[float(a), float(b)] for a, b in obj]
        return _csv_rows(rows)
    raise TypeError(f"cannot serialize {type(obj).__name__} to CSV")


def parse_csv(text: str) -> list:
    """Rows of strings from RFC-4180 text (the standard library's reader)."""
    return list(csv.reader(io.StringIO(text, newline="")))


# --------------------------------------------------------------------------
# SVG

_STYLE = {
    "boundary": 'fill="none" stroke="#cc0000" stroke-width="0.01"',
    "path": 'fill="none" stroke="#000000" stroke-width="0.015"',
    "start": 'fill="#000000"',
    "escape": 'fill="#cc0000"',
}


def _svg_bounds(inst: Instance, pts: np.ndarray, anchor: np.ndarray):
    xs, ys = [anchor[0]], [anchor[1]]
    if pts.size:
        xs += pts[:, 0].tolist()
        ys += pts[:, 1].tolist()
    extent = [q for b in inst.boundaries for f in b.factors for q in f.svg_extent()]
    xs += [x for x, _ in extent]
    ys += [y for _, y in extent]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-6)
    pad = 0.05 * span
    return x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad


def to_svg(solution: Solution | None, inst: Instance) -> str:
    """SVG 1.1 scene: red boundaries, black escape polyline, red escape points."""
    if solution is not None and not solution.converged:
        raise ValueError("refusing to draw a non-converged solution")
    anchor = np.asarray(inst.start_anchor[:2] if inst.start_anchor else (0.0, 0.0))
    pts = solution.points() if solution is not None else np.zeros((0, 2))
    pts2 = pts[:, :2] + anchor if pts.size else pts.reshape(0, 2)
    x0, y0, w, h = _svg_bounds(inst, pts2, anchor)
    buf = io.StringIO()
    buf.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    buf.write(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="600" height="{_fmt(600 * h / w)}" '
              f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">\n')
    # flip y so the geometry reads with y pointing up
    buf.write(f'<g transform="translate(0 {_fmt(2 * y0 + h)}) scale(1 -1)">\n')
    reach = math.hypot(w, h)  # lines are clipped against the canvas diagonal
    shapes = list(filter(None, (f.svg_shape(reach) for b in inst.boundaries for f in b.factors)))
    attr_text = iter(_fmt_each([v for _, attrs, _ in shapes for _, v in attrs]))
    for element, attrs, style in shapes:
        fields = " ".join(f'{k}="{next(attr_text)}"' for k, _ in attrs)
        buf.write(f"<{element} {fields} {_STYLE[style]}/>\n")
    if pts2.shape[0]:
        text = _fmt_each(pts2)  # each point once, for the polyline and its dot
        xy = list(zip(text[0::2], text[1::2]))
        start = f"{_fmt(anchor[0])},{_fmt(anchor[1])}"
        chain = [start] if inst.anchored else []
        chain += [f"{x},{y}" for x, y in xy]
        if inst.closed:
            chain.append(start)
        points = " ".join(chain)
        buf.write(f'<polyline points="{points}" {_STYLE["path"]}/>\n')
        buf.write("".join(f'<circle cx="{x}" cy="{y}" r="0.012" {_STYLE["escape"]}/>\n'
                          for x, y in xy))
    if inst.anchored:
        buf.write(f'<circle cx="{_fmt(anchor[0])}" cy="{_fmt(anchor[1])}" r="0.018" '
                  f'{_STYLE["start"]}/>\n')
    buf.write("</g>\n</svg>\n")
    return buf.getvalue()


# --------------------------------------------------------------------------
# order-model text (documented in docs/mtz-format.md)

def _boundary_text(boundaries) -> list:
    """Each boundary's text: its factors' tags and fields, joined by " | "
    and led by "product" on a product.  One `_fmt_each` call formats every
    field of the list."""
    fields = [[f.fields() for f in b.factors] for b in boundaries]
    text = iter(_fmt_each([v for per_b in fields for fs in per_b for v in fs]))
    lines = [" | ".join(" ".join([f.tag, *islice(text, len(fs))])
                        for f, fs in zip(b.factors, per_b))
             for b, per_b in zip(boundaries, fields)]
    return ["product " + t if isinstance(b, geo.Product) else t for b, t in zip(boundaries, lines)]


def _declarations(name: str, tail: str, k: int) -> str:
    """The K^2 lines `name[i][j]tail`, row i as one join over the K tails."""
    tails = [f"[{j}]{tail}\n" for j in range(k)]
    return "".join(f"{name}[{i}]" + f"{name}[{i}]".join(tails) for i in range(k))


def to_mtz_text(model: MtzModel, inst: Instance | None = None) -> str:
    """Emit the populated order model; refuses structurally invalid models."""
    model.validate()
    k = model.size
    buf = io.StringIO()
    buf.write(f"MTZ K={k} anchored={int(model.anchored)}\n")
    buf.write("VARS\n")
    buf.write(_declarations("b", " binary", k))
    for i in range(k):
        buf.write(f"u[{i}] in [0,{k - 1}]\n")
    for i in range(k):
        buf.write(f"x[{i}] free\ny[{i}] free\n")
    buf.write(_declarations("c", " >= 0", k))
    buf.write("OBJ\n")
    buf.write("c[0][0] + sum_ij b[i][j]*c[i][j]\n")
    buf.write("QCONS\n")
    buf.write("c[i][j]^2 = (x[i]-x[j])^2 + (y[i]-y[j])^2 for all i,j\n")
    for i, text in enumerate(_boundary_text(model.boundaries)):
        buf.write(f"on[{i}] {text}\n")
    buf.write("LCONS\n")
    buf.write("sum_j b[i][j] = 1 for all i\n")
    buf.write("sum_i b[i][j] = 1 for all j\n")
    buf.write("b[i][i] = 0 for all i\n")
    buf.write(f"u[i] - u[j] + 1 <= {k}*(1 - b[i][j]) for i,j >= 1\n")
    buf.write("SOLUTION\n")
    # validate() leaves one 1 in each row of b and 0 everywhere else
    ones = [list(row).index(1) for row in model.b]
    buf.write("".join(f"b {'0 ' * j}1{' 0' * (k - 1 - j)}\n" for j in ones))
    for head, block in (("u ", [model.u]), ("p ", model.points), ("c ", model.c)):
        buf.writelines(_lines(head, " ", block, "\n"))
    buf.write(f"OBJVALUE {_fmt(model.objective)}\n")
    return buf.getvalue()


def _parse_boundary(spec: str):
    kind, *rest = spec.split()
    if kind == "product":
        parts = spec[len("product"):].split("|")
        return geo.Product(tuple(_parse_boundary(p.strip()) for p in parts))
    return geo.PRIMITIVES[kind].from_fields([float(v) for v in rest])


def parse_mtz_text(text: str) -> dict:
    """Read back an emitted model file (header, boundaries, embedded solution)."""
    lines = text.splitlines()
    m = re.match(r"MTZ K=(\d+) anchored=([01])", lines[0])
    if not m:
        raise ValueError("not an order-model file")
    k = int(m.group(1))
    anchored = bool(int(m.group(2)))
    bounds, brows, u, pts, crows, objval = [], [], None, [], [], None
    for ln in lines[1:]:
        if ln.startswith("on["):
            bounds.append(_parse_boundary(ln.split("]", 1)[1].strip()))
        elif ln.startswith("b ") and len(brows) < k:
            brows.append([int(v) for v in ln.split()[1:]])
        elif ln.startswith("u "):
            u = [float(v) for v in ln.split()[1:]]
        elif ln.startswith("p "):
            pts.append([float(v) for v in ln.split()[1:]])
        elif ln.startswith("c ") and len(crows) < k:
            crows.append([float(v) for v in ln.split()[1:]])
        elif ln.startswith("OBJVALUE"):
            objval = float(ln.split()[1])
    if u is None or objval is None or len(brows) != k:
        raise ValueError("model file is missing solution sections")
    return {"k": k, "anchored": anchored, "boundaries": tuple(bounds),
            "b": np.array(brows), "u": np.array(u), "points": np.array(pts),
            "c": np.array(crows), "objective": objval}


def check_mtz_solution(text: str, feas_tol: float = 1e-6, obj_tol: float = 1e-9) -> dict:
    """Bundled checker: validate the embedded solution of a model file.

    Verifies assignment structure, auxiliary bounds, subtour inequalities,
    distance consistency, boundary residuals, and recomputes the objective.
    Each tolerance test reads `not (x <= tol)`, so a NaN fails it.
    """
    data = parse_mtz_text(text)
    k, B, u = data["k"], data["b"], data["u"]
    pts, C = data["points"], data["c"]
    problems = []
    if not (B.sum(axis=0) == 1).all() or not (B.sum(axis=1) == 1).all():
        problems.append("assignment rows/columns broken")
    if np.trace(B) != 0:
        problems.append("self loop present")
    if not ((-1e-9 <= u) & (u <= k - 1 + 1e-9)).all():
        problems.append("auxiliaries out of range")
    problems += [f"subtour inequality broken at ({i},{j})" for i, j in subtour_violations(B, u, k)]
    diff = pts[:, None, :] - pts[None, :, :]
    dmat = np.linalg.norm(diff, axis=2)
    if not np.max(np.abs(dmat - C)) <= feas_tol:
        problems.append("distance terms do not match the points")
    for i, b in enumerate(data["boundaries"]):
        if not np.isfinite(pts[i]).all():
            problems.append(f"point {i} is not finite")
            continue
        r = geo.scaled_residual(b, pts[i])
        if not r <= feas_tol:
            problems.append(f"point {i} off its boundary by {r:.2e}")
    anchor0 = float(np.linalg.norm(pts[0])) if data["anchored"] else 0.0
    recomputed = anchor0 + float((B * C).sum())
    if not abs(recomputed - data["objective"]) <= obj_tol:
        problems.append(
            f"objective mismatch: stated {data['objective']!r}, recomputed {recomputed!r}")
    return {"feasible": not problems, "problems": problems,
            "objective": recomputed, "stated_objective": data["objective"]}
