import json
import math

import numpy as np
import pytest

from escape_solver import geometry as geo
from escape_solver.scenario import (Instance, ScenarioSpec, build, build_weak_form_II,
                                    build_zalgaller, load_config, make_scenario,
                                    symmetry_reduce, transform_spec)

TAU = 2 * math.pi


def _on(b, p, tol=1e-9):
    return geo.scaled_residual(b, p) <= tol


def test_halfplane_family_closes_the_sweep():
    inst = build(make_scenario("halfplane_unit", 5))
    # inclusive quarter-turn spacing: x=1, y=1, x=-1, y=-1 and the closing copy of x=1
    witnesses = [(1.0, 0.3), (0.4, 1.0), (-1.0, 0.2), (0.7, -1.0), (1.0, -2.0)]
    for b, w in zip(inst.boundaries, witnesses):
        assert _on(b, w)
    assert inst.size == 5


def test_single_orientation_is_untransformed():
    spec = make_scenario("circle_exterior", 1)
    inst = build(spec)
    assert inst.boundaries[0] == spec.base_boundary


def test_circle_exterior_quarter_turn_member():
    inst = build(make_scenario("circle_exterior", 9))
    b = inst.boundaries[2]  # angle 2*pi*2/8 = pi/2
    assert isinstance(b, geo.Circle)
    assert np.allclose(b.center, (0.0, 1.0), atol=1e-12)
    assert b.radius == pytest.approx(0.5)


def test_an_origin_start_turns_the_base_about_the_origin():
    base = geo.Circle((1.0, 0.0), 0.5)
    inst = build(ScenarioSpec(name="t", n_orientations=6, base_boundary=base))
    for a, b in zip(inst.angles, inst.boundaries):
        assert b == geo.apply_motion(base, geo.RigidMotion(angle=a))


def _fields(b) -> np.ndarray:
    return np.array([v for f in b.factors for v in f.fields()])


def _rows_match(rows, expected, tol=1e-12):
    return all(np.allclose(_fields(b), _fields(e), rtol=0.0, atol=tol)
               for b, e in zip(rows, expected, strict=True))


_ESCAPE_FAMILIES = [("strip_wf2", 6, 4, {}), ("circle_wf2", 6, 3, {}),
                    ("triangle_equilateral", 6, 4, {}),
                    ("triangle_general", 6, 36, {"phi1": -math.pi / 2, "delta1": 0.3,
                                                 "phi2": math.pi / 6, "delta2": 0.3,
                                                 "phi3": 5 * math.pi / 6, "delta3": 0.3}),
                    ("sector", 8, 6, {}), ("sector", 8, 6, {"phi2": math.pi / 3})]


@pytest.mark.parametrize("name, n, m, params", _ESCAPE_FAMILIES,
                         ids=["strip_wf2", "circle_wf2", "triangle_equilateral",
                              "triangle_general", "sector", "sector60"])
def test_each_row_is_its_start_row_turned_about_the_origin(name, n, m, params):
    """R(a)(B - s): the start stays put relative to the region as a changes."""
    inst = build(make_scenario(name, n, m, **params))
    first = {k: b for b, k, i in zip(inst.boundaries, inst.start_index, inst.orient_index)
             if i == 0}
    assert len(first) > 1
    turned = [geo.apply_motion(first[k], geo.RigidMotion(angle=a))
              for k, a in zip(inst.start_index, inst.angles)]
    assert _rows_match(inst.boundaries, turned)


def _meet(l1, l2) -> np.ndarray:
    return np.linalg.solve(np.array([l1.normal(), l2.normal()]), [l1.offset, l2.offset])


@pytest.mark.parametrize("phi2", [math.pi / 2, math.pi / 3], ids=["sector", "sector60"])
def test_sector_arc_is_centred_on_its_apex(phi2):
    inst = build(make_scenario("sector", 8, 4, phi2=phi2))
    for b in inst.boundaries:
        l1, l2, arc = b.factors
        assert np.allclose(arc.center, _meet(l1, l2), rtol=0.0, atol=1e-12)


def test_sector_edges_run_along_their_directions():
    inst = build(make_scenario("sector", 8, 4, phi2=math.pi / 3))
    for b, i in zip(inst.boundaries, inst.orient_index):
        if i == 0:
            l1, l2, _ = b.factors
            for line, phi in ((l1, 0.0), (l2, math.pi / 3)):
                tx, ty = line.tangent()
                assert tx * math.sin(phi) - ty * math.cos(phi) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", ["triangle_equilateral", "sector"])
def test_a_moved_scenario_builds_its_rows_turned(name):
    spec = make_scenario(name, 6, 4)
    motion = geo.RigidMotion(center=(0.3, -0.2), angle=0.7, translation=(1.1, 0.4))
    moved = build(transform_spec(spec, motion)).boundaries
    turned = [geo.apply_motion(b, geo.RigidMotion(angle=motion.angle))
              for b in build(spec).boundaries]
    assert _rows_match(moved, turned)


def test_strip_wf2_offsets():
    inst = build(make_scenario("strip_wf2", 4, 3))
    assert inst.size == 12
    # first start sits on one wall: its first product has a factor through the origin
    b0 = inst.boundaries[0]
    assert isinstance(b0, geo.Product)
    assert min(abs(geo.eval_boundary(f, (0.0, 0.0))) for f in b0.factors) <= 1e-12
    # the other wall is one unit away
    offs = sorted(abs(f.offset) for f in b0.factors)
    assert offs == pytest.approx([0.0, 1.0])


def test_circle_wf2_recentred_member():
    inst = build(make_scenario("circle_wf2", 4, 1))
    b = inst.boundaries[0]  # k/M = 1, first orientation
    assert np.allclose(b.center, (-1.0, 0.0), atol=1e-12)
    assert b.radius == pytest.approx(1.0)


def test_boundary_count_is_starts_times_orientations():
    for name, n, m in (("strip_wf2", 3, 5), ("circle_wf2", 4, 3),
                       ("opaque_square", 3, 4)):
        inst = build(make_scenario(name, n, m))
        starts = len(set(inst.start_index))
        assert inst.size == starts * n


def test_rigid_family_preserves_start_distance():
    spec = make_scenario("circle_wf2", 5, 3)
    inst = build(spec)
    # distance from the (recentred) anchor to each boundary equals the distance
    # from the original start to the base circle
    for h, b in enumerate(inst.boundaries):
        k = inst.start_index[h]
        s = np.asarray(spec.starts[k])
        d_orig = abs(np.linalg.norm(s) - spec.base_boundary.radius)
        q = geo.project(b, np.zeros(2))
        assert np.linalg.norm(q) == pytest.approx(d_orig, abs=1e-12)


def test_opaque_square_single_point():
    inst = build(make_scenario("opaque_square", 2, 1))
    assert inst.size == 2
    for b in inst.boundaries:
        assert isinstance(b, geo.Line)
        assert _on(b, (0.0, 0.0))
    assert inst.start_anchor is None


def test_opaque_circle_tangent_axes():
    inst = build(make_scenario("opaque_circle_tangent", 5))
    witnesses = [(1.0, 0.4), (0.2, 1.0), (-1.0, 0.1), (0.3, -1.0), (1.0, 9.0)]
    for b, w in zip(inst.boundaries, witnesses):
        assert _on(b, w)


def test_opaque_ellipse_tangent_form():
    inst = build(make_scenario("opaque_ellipse", 8, phi=0.0))
    b = inst.boundaries[0]
    # first tangent: x*cos0 + 2*y*sin0 = 1, i.e. x = 1
    assert _on(b, (1.0, 0.0))
    assert _on(b, (1.0, 5.0))


def test_plane3d_family():
    inst = build(make_scenario("plane3d", 1, 4))
    assert all(np.allclose(b.normal, (0, 0, 1)) for b in inst.boundaries)
    inst2 = build(make_scenario("plane3d", 2, 1))
    normals = [b.normal for b in inst2.boundaries]
    assert np.allclose(normals[0], (0, 0, 1), atol=1e-12)
    assert np.allclose(normals[1], (1, 0, 0), atol=1e-12)
    inst3 = build(make_scenario("plane3d", 8, 8))
    assert inst3.size == 64
    assert all(b.offset == 1.0 for b in inst3.boundaries)


def test_symmetry_reduce_strip():
    spec = make_scenario("strip_wf2", 2, 2)
    spec = spec.__class__(**{**spec.__dict__, "starts": ((0.1, 0.0), (0.7, 0.0))})
    red = symmetry_reduce(spec)
    assert sorted(s[0] for s in red.starts) == pytest.approx([0.1, 0.3])


def test_symmetry_reduce_radial():
    spec = make_scenario("circle_wf2", 2, 2)
    spec = spec.__class__(**{**spec.__dict__, "starts": ((0.3, 0.4), (0.0, -0.5))})
    red = symmetry_reduce(spec)
    assert all(s[1] == 0.0 for s in red.starts)
    assert sorted(s[0] for s in red.starts) == pytest.approx([0.5, 0.5]) or \
        len(red.starts) == 1


def test_symmetry_reduce_triangle_fold():
    spec = make_scenario("triangle_equilateral", 2, 2)
    rotated = tuple(
        (0.2 * math.cos(a), 0.2 * math.sin(a)) for a in (0.1, 0.1 + 2 * math.pi / 3))
    spec = spec.__class__(**{**spec.__dict__, "starts": rotated})
    red = symmetry_reduce(spec)
    # both starts fold onto the same representative in the one-third sector
    assert len(red.starts) == 1
    assert abs(math.atan2(red.starts[0][1], red.starts[0][0])) <= math.pi / 3 + 1e-9


def test_symmetry_reduce_unknown_warns():
    spec = make_scenario("halfplane_unit", 4)
    with pytest.warns(UserWarning):
        out = symmetry_reduce(spec)
    assert out.starts == spec.starts


def test_zalgaller_family_geometry():
    inst = build_zalgaller(10, 0.0)
    assert _on(inst.boundaries[0], (5.0, -1.0))  # first wall is y = -1
    # half-turn sweep: last wall is y = +1
    assert _on(inst.boundaries[-1], (-2.0, 1.0))


def test_config_roundtrip(tmp_path):
    cfg = {"name": "bisector_angle", "N": 6, "M": 1,
           "params": {"theta": math.pi / 3}, "order": "hint"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    spec = load_config(str(path))
    assert spec.name == "bisector_angle"
    assert spec.angle_range == pytest.approx(TAU - math.pi / 3)
    assert spec.order_hint is not None


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        load_config({"name": "halfplane_unit", "N": 4, "bogus": 1})


def test_config_order_search_clears_hint():
    spec = load_config({"name": "halfplane_unit", "N": 4, "order": "search"})
    assert spec.order_hint is None


def test_weak_form_preconditions():
    base = geo.Line(0.0, 1.0)
    with pytest.raises(ValueError, match="not an escape form"):
        build_weak_form_II(ScenarioSpec(name="x", n_orientations=3, base_boundary=base,
                                        mode="opaque"))
    with pytest.raises(ValueError, match="no base boundary"):
        build_weak_form_II(ScenarioSpec(name="x", n_orientations=3))
    with pytest.raises(ValueError, match="starts at the origin"):
        Instance(name="x", boundaries=(base,), mode="escape_open", dimension=2,
                 start_anchor=(0.5, -0.25), angles=(0.0,), start_index=(0,), orient_index=(0,))
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", n_orientations=0, base_boundary=base)
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", n_orientations=3, base_boundary=base, mode="weird")


def test_triangle_catalog_products():
    inst = build(make_scenario("triangle_equilateral", 3, 3))
    assert all(isinstance(b, geo.Product) and len(b.factors) == 3
               for b in inst.boundaries)
    assert inst.size == len(set(inst.start_index)) * 3


def test_triangle_general_names_its_missing_edge_parameters():
    with pytest.raises(ValueError, match=r"parameters phi2, delta3; .* JSON config"):
        make_scenario("triangle_general", 3, phi1=0.0, delta1=0.3, delta2=0.3, phi3=4.0)
    edges = {"phi1": -math.pi / 2, "delta1": 0.3, "phi2": math.pi / 6, "delta2": 0.3,
             "phi3": 5 * math.pi / 6, "delta3": 0.3}
    spec = load_config({"name": "triangle_general", "N": 3, "params": edges})
    assert spec.base_boundary == geo.Product(tuple(geo.Line(edges[f"phi{j}"], edges[f"delta{j}"])
                                                   for j in (1, 2, 3)))


def test_interleaved_hints_are_permutations():
    from escape_solver.order_search import OrderPlan

    for name, n in (("strip_middle_product", 8), ("perp_lines_product", 8),
                    ("strip_middle_product", 12), ("perp_lines_product", 12)):
        spec = make_scenario(name, n)
        assert len(OrderPlan(spec.order_hint)) == n
    with pytest.raises(ValueError):
        make_scenario("strip_middle_product", 7)
    with pytest.raises(ValueError):
        make_scenario("perp_lines_product", 10)


def test_perp_product_solvable_with_hint():
    inst = build(make_scenario("perp_lines_product", 8))
    from escape_solver.nlp_solver import SolveOptions, solve_fixed_order

    sol = solve_fixed_order(inst, inst.order_hint, SolveOptions(multistart=2))
    assert sol.converged


def test_sector_catalog_has_arc_factor():
    inst = build(make_scenario("sector", 3, 2, phi1=0.0, phi2=math.pi / 2, r=1.0))
    for b in inst.boundaries:
        kinds = {type(f) for f in b.factors}
        assert geo.Circle in kinds and geo.Line in kinds
