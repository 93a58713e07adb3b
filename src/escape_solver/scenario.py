"""Problem-instance construction: a catalog of named boundary-family scenarios.

A scenario fixes a base boundary, start points, an orientation count N and a
rotation range; building it yields the family of rotated (and recentered)
boundary copies that one escape path must meet.  Orientation angles are spaced
inclusively over the range (i * range / (N-1)), so the sweep closes: for a full
turn the family ends on the starting boundary again.  This keeps discretized
lengths within O(1/N^2) of the continuum values the catalog checks against.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    BoundaryExpr,
    Circle,
    Line,
    Plane3,
    PointTarget,
    Product,
    RigidMotion,
    Segment,
    apply_motion,
    eval_boundary,
    rotate_about,
    translate,
)

TAU = 2.0 * math.pi

MODES = ("escape_open", "escape_closed", "opaque", "plane3d")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    n_orientations: int
    mode: str = "escape_open"
    base_boundary: BoundaryExpr | None = None
    starts: tuple = ((0.0, 0.0),)
    angle_range: float = TAU
    params: dict = field(default_factory=dict)
    order_hint: tuple | None = None
    seed_points: tuple | None = None
    region_area: float | None = None
    exact_length: float | None = None
    reference_length: float | None = None
    symmetry: str | None = None

    def __post_init__(self):
        if self.n_orientations < 1:
            raise ValueError("need at least one orientation")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.starts and self.mode != "opaque":
            raise ValueError("scenario needs at least one start")
        if not 0.0 < self.angle_range <= TAU + 1e-12:
            raise ValueError("angle_range must lie in (0, 2*pi]")
        for v in self.params.values():
            if isinstance(v, (int, float)) and not math.isfinite(v):
                raise ValueError("scenario parameters must be finite")

    @property
    def n_starts(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class Instance:
    """A concrete boundary family plus the metadata the solvers need."""

    name: str
    boundaries: tuple
    mode: str
    dimension: int
    start_anchor: tuple | None
    angles: tuple            # rotation angle used to generate each boundary
    start_index: tuple       # grid/start index per boundary
    orient_index: tuple      # orientation index per boundary
    order_hint: tuple | None = None
    seed_points: tuple | None = None
    region_area: float | None = None
    exact_length: float | None = None
    reference_length: float | None = None

    def __post_init__(self):
        if len(self.boundaries) == 0:
            raise ValueError("instance has no boundaries")

    @property
    def size(self) -> int:
        return len(self.boundaries)

    @property
    def closed(self) -> bool:
        return self.mode == "escape_closed"

    @property
    def anchored(self) -> bool:
        return self.mode != "opaque"


def sweep_angles(n: int, angle_range: float) -> np.ndarray:
    """Inclusive orientation grid over [0, angle_range]."""
    if n == 1:
        return np.zeros(1)
    return angle_range * np.arange(n) / (n - 1)


def _instance(spec: ScenarioSpec, rows, dimension: int = 2,
              start_anchor: tuple | None = (0.0, 0.0)) -> Instance:
    """The Instance of a built family: `rows` holds (boundary, angle, start index,
    orientation index) per boundary; name, mode and the order, seed and
    reference data pass through from the spec."""
    bnds, angs, kidx, iidx = zip(*rows) if rows else ((),) * 4
    return Instance(
        name=spec.name, boundaries=tuple(bnds), mode=spec.mode, dimension=dimension,
        start_anchor=start_anchor, angles=tuple(map(float, angs)),
        start_index=tuple(kidx), orient_index=tuple(iidx),
        order_hint=spec.order_hint, seed_points=spec.seed_points,
        region_area=spec.region_area, exact_length=spec.exact_length,
        reference_length=spec.reference_length,
    )


def build_weak_form_I(spec: ScenarioSpec) -> Instance:
    """Single known start: the base boundary rotated through the sweep about it."""
    if spec.n_starts != 1:
        raise ValueError("this form takes exactly one start (use the multi-start builder)")
    if spec.mode not in ("escape_open", "escape_closed"):
        raise ValueError(f"mode {spec.mode!r} is not an escape form")
    if spec.base_boundary is None:
        raise ValueError("scenario has no base boundary")
    start = spec.starts[0]
    angles = sweep_angles(spec.n_orientations, spec.angle_range)
    return _instance(spec, [(rotate_about(spec.base_boundary, float(a), start), a, 0, i)
                            for i, a in enumerate(angles)], start_anchor=tuple(start))


def build_weak_form_II(spec: ScenarioSpec) -> Instance:
    """Several known starts: rotate about each start, then shift each copy so all
    paths share the origin anchor."""
    if spec.mode not in ("escape_open", "escape_closed"):
        raise ValueError(f"mode {spec.mode!r} is not an escape form")
    if not spec.starts:
        raise ValueError("scenario has no starts")
    if spec.base_boundary is None:
        raise ValueError("scenario has no base boundary")
    angles = sweep_angles(spec.n_orientations, spec.angle_range)
    return _instance(spec, [
        (translate(rotate_about(spec.base_boundary, float(a), s), (-s[0], -s[1])), a, k, i)
        for k, s in enumerate(spec.starts) for i, a in enumerate(angles)])


def build_opaque(spec: ScenarioSpec) -> Instance:
    """Lines every curve of an opaque set must block: through grid points at the
    sweep angles, or tangent families supplied directly in params."""
    if spec.mode != "opaque":
        raise ValueError("not an opaque scenario")
    angles = sweep_angles(spec.n_orientations, spec.angle_range)
    tangent = spec.params.get("tangent_lines")
    if tangent is not None:
        # pre-built tangent family: one line per orientation
        rows = [(ln, angles[i], 0, i) for i, ln in enumerate(tangent)]
    else:
        rows = [(Line(float(a), float(np.asarray(q) @ np.array([math.cos(a), math.sin(a)]))),
                 a, k, i)
                for k, q in enumerate(spec.params["through_points"])
                for i, a in enumerate(angles)]
    return _instance(spec, rows, start_anchor=None)


def build_plane3d(spec: ScenarioSpec) -> Instance:
    """Tangent planes of the unit ball on a polar x azimuthal orientation grid."""
    if spec.mode != "plane3d":
        raise ValueError("not a 3D scenario")
    m = int(spec.params.get("m_azimuth", spec.n_starts))
    rows = []
    for i in range(spec.n_orientations):
        pol = math.pi * i / spec.n_orientations
        for k in range(1, m + 1):
            az = TAU * k / m
            normal = (math.sin(pol) * math.cos(az), math.sin(pol) * math.sin(az), math.cos(pol))
            rows.append((Plane3(normal, 1.0), pol, k - 1, i))
    return _instance(spec, rows, dimension=3, start_anchor=(0.0, 0.0, 0.0))


def _build_relative_line_products(spec: ScenarioSpec, line_params, circle_radius=None) -> Instance:
    """Product families written relative to each grid point (triangle, sector)."""
    angles = sweep_angles(spec.n_orientations, spec.angle_range)
    rows = []
    for k, s in enumerate(spec.starts):
        s = np.asarray(s, dtype=float)
        for i, a in enumerate(angles):
            factors = []
            for (phi, delta) in line_params:
                ang = phi + float(a)
                n = np.array([math.cos(ang), math.sin(ang)])
                factors.append(Line(ang, float(delta + s @ n)))
            if circle_radius is not None:
                rho = float(np.linalg.norm(s))
                c = (rho * math.cos(a), rho * math.sin(a))
                factors.append(Circle(c, circle_radius))
            rows.append((Product(tuple(factors)), a, k, i))
    return _instance(spec, rows)


def build(spec: ScenarioSpec) -> Instance:
    """Dispatch to the right builder for the scenario's mode and start count."""
    kind = spec.params.get("family")
    if kind == "triangle":
        return _build_relative_line_products(spec, spec.params["edge_lines"])
    if kind == "sector":
        return _build_relative_line_products(
            spec, spec.params["edge_lines"], circle_radius=spec.params["radius"])
    if spec.mode == "opaque":
        return build_opaque(spec)
    if spec.mode == "plane3d":
        return build_plane3d(spec)
    if spec.n_starts == 1 and tuple(spec.starts[0]) == (0.0, 0.0):
        return build_weak_form_I(spec)
    return build_weak_form_II(spec)


# --------------------------------------------------------------------------
# symmetry reduction of start grids

def symmetry_reduce(spec: ScenarioSpec) -> ScenarioSpec:
    """Fold starts into the scenario's fundamental domain, deduplicating."""
    if spec.symmetry == "strip":
        # width-1 strip between offsets 0 and 1: reflection about the midline
        folded = [((1.0 - s[0]) if s[0] > 0.5 else s[0], s[1]) for s in spec.starts]
    elif spec.symmetry == "radial":
        folded = [(float(np.hypot(*s)), 0.0) for s in spec.starts]
    elif spec.symmetry == "triangle":
        folded = [_fold_triangle_third(s) for s in spec.starts]
    else:
        warnings.warn(f"scenario {spec.name!r} has no documented symmetry; starts unchanged")
        return spec
    seen, out = set(), []
    for s in folded:
        key = (round(s[0], 12), round(s[1], 12))
        if key not in seen:
            seen.add(key)
            out.append((float(s[0]), float(s[1])))
    return replace(spec, starts=tuple(out), params={**spec.params, "symmetry_reduced": True})


def _fold_triangle_third(s) -> tuple:
    """Map into one third of the equilateral triangle (rotations by 2*pi/3)."""
    p = np.asarray(s, dtype=float)
    best = None
    for j in range(3):
        m = RigidMotion(angle=j * TAU / 3.0)
        q = m.apply(p) if j else p
        ang = math.atan2(q[1], q[0])
        if -math.pi / 3.0 - 1e-12 <= ang <= math.pi / 3.0 + 1e-12:
            best = q
            break
    if best is None:
        best = p
    return (float(best[0]), float(best[1]))


# --------------------------------------------------------------------------
# catalog

SEGMENT_FRACTION = 1.0 / (1.0 + TAU)   # inner endpoint of the probe segment
NONUNIQUE_RADIUS = 1.500272            # interior circle whose two optima tie

HALFPLANE_EXACT = 7.0 * math.pi / 6.0 + 1.0 + math.sqrt(3.0)
POINT_EXACT = 1.0 + TAU
STRIP_EDGE_REFERENCE = 2.297       # straight-edge strip escape (literature value)
STRIP_FULL_REFERENCE = 2.278292    # optimal strip escape (literature value)
# Tight upper reference for the middle-of-strip sweep, frozen from a refined
# ladder extrapolation; only used as an upper gate on discretized lengths.
STRIP_MIDDLE_REFERENCE = 1.6278249

# Reference escape path used to derive the assumed visiting order (and seed
# points) for the multi-start strip family.  Frozen catalog data.
_STRIP_REFERENCE_PATH = (
    (0.000000, 0.000000), (0.014788, -0.075865), (0.029576, -0.151729),
    (0.044364, -0.227594), (0.059168, -0.303455), (0.074749, -0.379159),
    (0.092070, -0.454484), (0.115986, -0.527917), (0.149917, -0.597295),
    (0.192707, -0.661608), (0.242490, -0.720682), (0.298472, -0.773919),
    (0.359925, -0.820734), (0.426116, -0.860571), (0.496283, -0.892890),
    (0.569624, -0.917156), (0.642538, -0.910163), (0.709506, -0.871688),
    (0.770928, -0.824852), (0.826166, -0.770854), (0.874711, -0.710763),
    (0.916140, -0.645560), (0.950094, -0.576168), (0.975878, -0.503356),
    (0.991950, -0.427809), (0.998064, -0.350805), (0.999810, -0.273534),
    (0.999790, -0.196243), (0.999224, -0.118953), (0.998658, -0.041663),
    (0.998092, 0.035628), (0.997526, 0.112918),
)


def _natural_order(k: int) -> tuple:
    return tuple(range(k))


def _interleaved_order(n: int) -> tuple:
    """0, n/2, 1, n/2+1, ...: pairs up the half-turn duplicates of a two-line family."""
    if n % 2:
        raise ValueError("interleaved order needs an even orientation count")
    out = []
    for i in range(n // 2):
        out.extend((i, i + n // 2))
    return tuple(out)


def _perp_interleaved_order(n: int) -> tuple:
    """0, 3n/4, 1, 3n/4+1, ..., n/4-1, n-1, then the untouched middle block."""
    if n % 4:
        raise ValueError("this order needs a multiple of four orientations")
    out = []
    for i in range(n // 4):
        out.extend((i, i + 3 * n // 4))
    out.extend(range(n // 4, 3 * n // 4))
    return tuple(out)


def _resample_path(path: np.ndarray, count: int) -> np.ndarray:
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(path, axis=0), axis=1))])
    u = np.linspace(0.0, s[-1], count)
    return np.stack([np.interp(u, s, path[:, 0]), np.interp(u, s, path[:, 1])], axis=1)


def hint_from_reference_path(boundaries, path, samples: int = 6000):
    """Visiting order plus seed points from first crossings along a reference path."""
    fine = _resample_path(np.asarray(path, dtype=float), samples)
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(fine, axis=0), axis=1))])
    order_keys, seeds = [], []
    for h, b in enumerate(boundaries):
        vals = eval_boundary(b, fine)
        hit = np.flatnonzero(np.abs(vals) < 1e-9)
        sign = np.sign(vals)
        flips = np.flatnonzero(sign[:-1] * sign[1:] <= 0)
        idx = min(hit[0] if hit.size else len(fine) - 1,
                  flips[0] + 1 if flips.size else len(fine) - 1)
        order_keys.append((s[idx], h))
        seeds.append((float(fine[idx][0]), float(fine[idx][1])))
    order = tuple(h for _, h in sorted(order_keys))
    return order, tuple(seeds)


def _ellipse_tangent(t: float) -> Line:
    # tangent of the ellipse with semi-axes (1, 1/2): x cos t + 2 y sin t = 1
    nx, ny = math.cos(t), 2.0 * math.sin(t)
    norm = math.hypot(nx, ny)
    return Line(math.atan2(ny, nx), 1.0 / norm)


def _square_grid(m: int) -> tuple:
    return tuple((u / m, v / m) for u in range(m) for v in range(m))


def _region_grid(inside, bbox, m: int) -> tuple:
    """Roughly m uniform grid points inside a region given by a predicate."""
    (x0, x1), (y0, y1) = bbox
    side = max(1, math.ceil(math.sqrt(m)))
    pts = []
    for u in range(side):
        for v in range(side):
            x = x0 + (u + 0.5) * (x1 - x0) / side
            y = y0 + (v + 0.5) * (y1 - y0) / side
            if inside(x, y):
                pts.append((x, y))
    return tuple(pts) if pts else ((0.0, 0.0),)


def _triangle_edges_equilateral():
    s = math.sqrt(3.0) / 6.0
    return ((-math.pi / 2.0, s), (-math.pi / 6.0, -s), (math.pi / 6.0, s))


def make_scenario(name: str, n: int, m: int = 1, **params) -> ScenarioSpec:
    """Instantiate a catalog scenario for a given orientation count (and start count)."""
    if name not in CATALOG:
        raise KeyError(f"unknown scenario {name!r}; catalog: {sorted(CATALOG)}")
    return CATALOG[name](n, m, params)


def _sc_halfplane(n, m, p):
    return ScenarioSpec(
        name="halfplane_unit", n_orientations=n, base_boundary=Line(0.0, 1.0),
        order_hint=_natural_order(n), exact_length=HALFPLANE_EXACT,
        mode=p.get("mode", "escape_open"))


def _sc_circle_exterior(n, m, p):
    return ScenarioSpec(
        name="circle_exterior", n_orientations=n,
        base_boundary=Circle((1.0, 0.0), 0.5), order_hint=_natural_order(n),
        mode=p.get("mode", "escape_open"))


def _sc_circle_interior_02(n, m, p):
    return ScenarioSpec(
        name="circle_interior_02", n_orientations=n,
        base_boundary=Circle((1.0, 0.0), 1.2), order_hint=_natural_order(n),
        mode=p.get("mode", "escape_open"))


def _sc_circle_interior_nonunique(n, m, p):
    return ScenarioSpec(
        name="circle_interior_nonunique", n_orientations=n,
        base_boundary=Circle((1.0, 0.0), NONUNIQUE_RADIUS),
        order_hint=_natural_order(n),
        reference_length=2.0 * NONUNIQUE_RADIUS,
        mode=p.get("mode", "escape_open"))


def _sc_point_unit(n, m, p):
    return ScenarioSpec(
        name="point_unit", n_orientations=n, base_boundary=PointTarget((1.0, 0.0)),
        order_hint=_natural_order(n), exact_length=POINT_EXACT,
        mode=p.get("mode", "escape_open"))


def _sc_circle_plus_segment(n, m, p):
    seg = Segment((SEGMENT_FRACTION, 0.0), (1.0, 0.0))
    return ScenarioSpec(
        name="circle_plus_segment", n_orientations=n,
        base_boundary=Product((Circle((0.0, 0.0), 1.0), seg)),
        order_hint=_natural_order(n), exact_length=1.0,
        mode=p.get("mode", "escape_open"))


def _sc_perp_lines_half(n, m, p):
    return ScenarioSpec(
        name="perp_lines_half", n_orientations=n,
        base_boundary=Line(-math.pi / 2.0, 0.5), angle_range=1.5 * math.pi,
        order_hint=_natural_order(n), mode=p.get("mode", "escape_open"))


def _sc_strip_middle(n, m, p):
    return ScenarioSpec(
        name="strip_middle", n_orientations=n, base_boundary=Line(0.0, -0.5),
        angle_range=math.pi, order_hint=_natural_order(n),
        exact_length=STRIP_MIDDLE_REFERENCE, mode=p.get("mode", "escape_open"))


def _sc_strip_middle_product(n, m, p):
    return ScenarioSpec(
        name="strip_middle_product", n_orientations=n,
        base_boundary=Product((Line(0.0, 0.5), Line(0.0, -0.5))),
        order_hint=_interleaved_order(n),
        mode=p.get("mode", "escape_open"))


def _sc_perp_lines_product(n, m, p):
    if n % 4:
        raise ValueError("perpendicular product family needs n divisible by 4")
    return ScenarioSpec(
        name="perp_lines_product", n_orientations=n,
        base_boundary=Product((Line(-math.pi / 2.0, 0.5), Line(0.0, 0.5))),
        order_hint=_perp_interleaved_order(n),
        mode=p.get("mode", "escape_open"))


def _sc_bisector_angle(n, m, p):
    theta = float(p.get("theta", math.pi / 2.0))
    if not 0.0 <= theta < TAU:
        raise ValueError("bisector angle must lie in [0, 2*pi)")
    return ScenarioSpec(
        name="bisector_angle", n_orientations=n, base_boundary=Line(0.0, -0.5),
        angle_range=TAU - theta, order_hint=_natural_order(n),
        params={"theta": theta}, mode=p.get("mode", "escape_open"))


def _sc_zalgaller_class2(n, m, p):
    # self-referential family; the concrete sweep is rebuilt per angle estimate
    gamma = float(p.get("gamma", 0.0))
    return ScenarioSpec(
        name="zalgaller_class2", n_orientations=n, base_boundary=Line(-math.pi / 2.0, 1.0),
        angle_range=math.pi - gamma if gamma < math.pi else math.pi,
        order_hint=_natural_order(n), params={"gamma": gamma, "self_referential": True},
        reference_length=STRIP_EDGE_REFERENCE, mode=p.get("mode", "escape_open"))


def build_zalgaller(n: int, gamma: float) -> Instance:
    """Edge-start strip family for the first-leg angle `gamma`.

    The path starts on the entry edge y = 0 and runs straight to the far wall
    y = -1, at angle gamma to the edge.  A path escapes every unit strip iff
    its width is at least 1 in every direction; the family covers the
    half-turn of directions in two parts:

    - along the normals swept clockwise from -pi/2 through pi - gamma the
      start is the path's lowest point, so there the far wall is a line at
      distance 1 from the start (n walls);
    - along the remaining gamma of normals the first point P0 is the lowest,
      so there the path must reach distance 1 from P0 (the guards).

    For gamma > 0 the first wall's touch point is pinned at P0 (the guards are
    only guards if P0 is on the path), and one guard wall, y = 0, is appended:
    the path returns to its entry edge.  The other guards need no wall of
    their own once the path ends on both the last swept wall and y = 0, as
    the shortest member does: such an end lies at distance >= 1 from P0 for
    every guard normal, because that distance is a sinusoid in the normal's
    angle, equal to 1 at both ends of a range shorter than pi.  At gamma = 0
    the sweep is the whole half-turn and there are no guards.
    """
    angles = -(math.pi - gamma) * (np.arange(n) / max(n - 1, 1))
    bnds = [Line(float(a) - math.pi / 2.0, 1.0) for a in angles]
    if gamma > 0.0:
        bnds[0] = PointTarget((-1.0 / math.tan(gamma), -1.0))
        bnds.append(Line(math.pi / 2.0, 0.0))
        angles = np.append(angles, -math.pi)
    k = len(bnds)
    return Instance(
        name="zalgaller_class2", boundaries=tuple(bnds), mode="escape_open", dimension=2,
        start_anchor=(0.0, 0.0), angles=tuple(float(a) for a in angles),
        start_index=(0,) * k, orient_index=tuple(range(k)),
        order_hint=tuple(range(k)), reference_length=STRIP_EDGE_REFERENCE,
    )


def _sc_strip_wf2(n, m, p):
    starts = tuple(((k - 1) / (2.0 * m), 0.0) for k in range(1, m + 1))
    spec = ScenarioSpec(
        name="strip_wf2", n_orientations=n,
        base_boundary=Product((Line(0.0, 0.0), Line(0.0, 1.0))),
        starts=starts, symmetry="strip",
        reference_length=STRIP_FULL_REFERENCE, mode=p.get("mode", "escape_open"))
    inst = build_weak_form_II(spec)
    order, seeds = hint_from_reference_path(inst.boundaries, _STRIP_REFERENCE_PATH)
    return replace(spec, order_hint=order, seed_points=seeds)


def _sc_circle_wf2(n, m, p):
    starts = tuple((k / m, 0.0) for k in range(1, m + 1))
    return ScenarioSpec(
        name="circle_wf2", n_orientations=n, base_boundary=Circle((0.0, 0.0), 1.0),
        starts=starts, symmetry="radial", region_area=math.pi,
        mode=p.get("mode", "escape_open"))


def _sc_triangle_equilateral(n, m, p):
    incircle = math.sqrt(3.0) / 6.0
    starts = _region_grid(_inside_equilateral_third, ((0.0, 0.6), (-0.35, 0.35)), m)
    return ScenarioSpec(
        name="triangle_equilateral", n_orientations=n, starts=starts,
        symmetry="triangle", region_area=math.sqrt(3.0) / 4.0,
        params={"family": "triangle", "edge_lines": _triangle_edges_equilateral(),
                "incircle": incircle},
        mode=p.get("mode", "escape_open"))


def _inside_equilateral_third(x: float, y: float) -> bool:
    # one third of the side-1 equilateral triangle with incenter at the origin,
    # cut out by the angular sector [-pi/3, pi/3] around the incenter
    if (x, y) != (0.0, 0.0) and not -math.pi / 3.0 <= math.atan2(y, x) <= math.pi / 3.0:
        return False
    for a, d in _triangle_edges_equilateral():
        if (x * math.cos(a) + y * math.sin(a) - d) * (0.0 - d) < 0:
            return False
    return True


def _sc_triangle_general(n, m, p):
    missing = [f"{q}{j}" for j in (1, 2, 3) for q in ("phi", "delta") if f"{q}{j}" not in p]
    if missing:
        raise ValueError(f"triangle_general needs the edge parameters {', '.join(missing)}; "
                         "give them in the params of a JSON config")
    edges = tuple(
        (float(p[f"phi{j}"]), float(p[f"delta{j}"])) for j in (1, 2, 3))
    starts = p.get("starts")
    if starts is None:
        starts = _region_grid(
            lambda x, y: all(
                (x * math.cos(a) + y * math.sin(a) - d) * (0.0 - d) >= 0
                for a, d in edges),
            ((-1.0, 1.0), (-1.0, 1.0)), m)
    area = p.get("area")
    return ScenarioSpec(
        name="triangle_general", n_orientations=n, starts=tuple(map(tuple, starts)),
        region_area=area, params={"family": "triangle", "edge_lines": edges,
                                  **{k: v for k, v in p.items() if k.startswith(("phi", "delta"))}},
        mode=p.get("mode", "escape_open"))


def _sc_sector(n, m, p):
    phi1 = float(p.get("phi1", 0.0))
    phi2 = float(p.get("phi2", math.pi / 2.0))
    r = float(p.get("r", 1.0))
    starts = p.get("starts")
    if starts is None:
        lo, hi = min(phi1, phi2), max(phi1, phi2)
        starts = _region_grid(
            lambda x, y: (lo <= math.atan2(y, x) <= hi) and (x * x + y * y <= r * r),
            ((-r, r), (-r, r)), m)
    area = abs(phi2 - phi1) / 2.0 * r * r
    return ScenarioSpec(
        name="sector", n_orientations=n, starts=tuple(map(tuple, starts)),
        region_area=area,
        params={"family": "sector", "edge_lines": ((phi1, 0.0), (phi2, 0.0)),
                "radius": r, "phi1": phi1, "phi2": phi2},
        mode=p.get("mode", "escape_open"))


def _sc_opaque_square(n, m, p):
    mm = int(p.get("m_grid", max(1, round(math.sqrt(m)))))
    return ScenarioSpec(
        name="opaque_square", n_orientations=n, mode="opaque",
        starts=((0.0, 0.0),), region_area=1.0,
        params={"through_points": _square_grid(mm), "m_grid": mm},
        order_hint=None)


def _sc_opaque_circle_tangent(n, m, p):
    angles = sweep_angles(n, TAU)
    lines = tuple(Line(float(a), 1.0) for a in angles)
    return ScenarioSpec(
        name="opaque_circle_tangent", n_orientations=n, mode="opaque",
        starts=((0.0, 0.0),), region_area=math.pi,
        params={"tangent_lines": lines}, order_hint=_natural_order(n))


def _sc_opaque_ellipse(n, m, p):
    phi = float(p.get("phi", 0.0))
    angles = sweep_angles(n, TAU)
    lines = tuple(_ellipse_tangent(float(a) + phi) for a in angles)
    return ScenarioSpec(
        name="opaque_ellipse", n_orientations=n, mode="opaque",
        starts=((0.0, 0.0),), region_area=math.pi * 1.0 * 0.5,
        params={"tangent_lines": lines, "phi": phi}, order_hint=_natural_order(n))


def _sc_plane3d(n, m, p):
    return ScenarioSpec(
        name="plane3d", n_orientations=n, mode="plane3d",
        starts=tuple((0.0, 0.0) for _ in range(max(1, m))),
        params={"m_azimuth": max(1, m)})


CATALOG = {
    "halfplane_unit": _sc_halfplane,
    "circle_exterior": _sc_circle_exterior,
    "circle_interior_02": _sc_circle_interior_02,
    "circle_interior_nonunique": _sc_circle_interior_nonunique,
    "point_unit": _sc_point_unit,
    "circle_plus_segment": _sc_circle_plus_segment,
    "perp_lines_half": _sc_perp_lines_half,
    "perp_lines_product": _sc_perp_lines_product,
    "strip_middle": _sc_strip_middle,
    "strip_middle_product": _sc_strip_middle_product,
    "bisector_angle": _sc_bisector_angle,
    "zalgaller_class2": _sc_zalgaller_class2,
    "strip_wf2": _sc_strip_wf2,
    "circle_wf2": _sc_circle_wf2,
    "triangle_equilateral": _sc_triangle_equilateral,
    "triangle_general": _sc_triangle_general,
    "sector": _sc_sector,
    "opaque_square": _sc_opaque_square,
    "opaque_circle_tangent": _sc_opaque_circle_tangent,
    "opaque_ellipse": _sc_opaque_ellipse,
    "plane3d": _sc_plane3d,
}

def transform_spec(spec: ScenarioSpec, motion: RigidMotion) -> ScenarioSpec:
    """Move a whole scenario (base boundary and starts) by one rigid motion."""
    if spec.base_boundary is None:
        raise ValueError("only base-boundary scenarios can be moved")
    starts = tuple(tuple(motion.apply(s)) for s in spec.starts)
    return replace(spec, base_boundary=apply_motion(spec.base_boundary, motion),
                   starts=starts, seed_points=None)


def scale_spec(spec: ScenarioSpec, s: float) -> ScenarioSpec:
    """Dilate a whole scenario about the origin."""
    from .geometry import scale_boundary

    if spec.base_boundary is None:
        raise ValueError("only base-boundary scenarios can be scaled")
    starts = tuple((s * a, s * b) for a, b in spec.starts)
    area = spec.region_area * s * s if spec.region_area is not None else None
    return replace(spec, base_boundary=scale_boundary(spec.base_boundary, s),
                   starts=starts, region_area=area, seed_points=None,
                   exact_length=None, reference_length=None)


CONFIG_KEYS = {"name", "N", "M", "mode", "params", "order", "angle_range"}


def load_config(source) -> ScenarioSpec:
    """Scenario from a JSON config file/dict: {name, N, M, mode, params, order, angle_range}."""
    if isinstance(source, dict):
        cfg = dict(source)
    else:
        with open(source, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "name" not in cfg or "N" not in cfg:
        raise ValueError("config needs at least 'name' and 'N'")
    params = dict(cfg.get("params", {}))
    if "mode" in cfg:
        params["mode"] = cfg["mode"]
    spec = make_scenario(cfg["name"], int(cfg["N"]), int(cfg.get("M", 1)), **params)
    if "angle_range" in cfg:
        spec = replace(spec, angle_range=float(cfg["angle_range"]))
    if cfg.get("order") == "search":
        spec = replace(spec, order_hint=None)
    return spec
