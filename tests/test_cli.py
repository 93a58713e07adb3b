import json
import math

import pytest

from escape_solver.cli import main


def test_solve_writes_artifacts_and_summary(tmp_path, capsys):
    rc = main(["solve", "point_unit", "--n", "6", "--out", str(tmp_path),
               "--multistart", "1"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    fields = [f.strip() for f in out.split(",")]
    assert fields[0] == "point_unit" and fields[1] == "6" and fields[3] == "hint"
    assert len(fields) == 7
    assert (tmp_path / "point_unit_n6_m1.csv").exists()
    assert (tmp_path / "point_unit_n6_m1.svg").exists()
    meta = json.loads((tmp_path / "point_unit_n6_m1.meta.json").read_text())
    assert meta["seed"] == 0 and meta["converged"]


def test_solve_unknown_scenario_exits_2(tmp_path, capsys):
    assert main(["solve", "not_a_scenario", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", [
    ["solve", "halfplane_unit", "--n", "3"],
    ["sweep", "halfplane_unit", "--param", "N", "--values", "3"]])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    rc = main([*command, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_bad_format_exits_2(tmp_path):
    assert main(["solve", "point_unit", "--n", "4", "--out", str(tmp_path),
                 "--format", "png"]) == 2


def test_solve_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "halfplane_unit", "N": 6}))
    rc = main(["solve", str(cfg), "--out", str(tmp_path), "--multistart", "1"])
    assert rc == 0
    assert (tmp_path / "halfplane_unit_n6_m1.csv").exists()


def test_solve_strategy_exhaustive(tmp_path, capsys):
    rc = main(["solve", "point_unit", "--n", "5", "--strategy", "exhaustive",
               "--out", str(tmp_path), "--multistart", "1"])
    assert rc == 0
    assert "exhaustive" in capsys.readouterr().out


def test_solve_closed_flag(tmp_path, capsys):
    rc = main(["solve", "point_unit", "--n", "8", "--closed",
               "--out", str(tmp_path), "--multistart", "1"])
    assert rc == 0
    length = float(capsys.readouterr().out.split(",")[4])
    # a return leg of one radius on top of the open tour
    assert length > 2.0


def test_identical_runs_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "circle_exterior", "--n", "8", "--out", str(out),
                     "--multistart", "2", "--seed", "3"]) == 0
    name = "circle_exterior_n8_m1.svg"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_single_orientation(tmp_path, capsys):
    rc = main(["solve", "point_unit", "--n", "1", "--out", str(tmp_path),
               "--multistart", "1"])
    assert rc == 0
    assert float(capsys.readouterr().out.split(",")[4]) == 1.0


def test_sweep_theta(tmp_path, capsys):
    rc = main(["sweep", "bisector_angle", "--param", "theta",
               "--values", f"{math.pi/6},{math.pi/3}", "--n", "8",
               "--out", str(tmp_path), "--multistart", "1", "--format", "csv"])
    assert rc == 0
    sweep = (tmp_path / "sweep_bisector_angle_theta.csv").read_text()
    assert sweep.startswith("value,length")
    assert len(sweep.strip().splitlines()) == 3


def test_sweep_writes_figures_on_request(tmp_path):
    rc = main(["sweep", "bisector_angle", "--param", "theta",
               "--values", f"{math.pi/6},{math.pi/3},{2*math.pi/3},{5*math.pi/6}",
               "--n", "8", "--out", str(tmp_path), "--multistart", "1",
               "--format", "svg,csv"])
    assert rc == 0
    assert len(list(tmp_path.glob("bisector_angle_theta*.svg"))) == 4


def test_sweep_n_ladder(tmp_path, capsys):
    rc = main(["sweep", "point_unit", "--param", "N", "--values", "4,8",
               "--out", str(tmp_path), "--multistart", "1", "--format", "csv"])
    assert rc == 0
    rows = (tmp_path / "sweep_point_unit_N.csv").read_text().strip().splitlines()
    lens = [float(r.split(",")[1]) for r in rows[1:]]
    assert lens[1] > lens[0]


def test_verify_only_subset(capsys):
    rc = main(["verify", "--only", "mtz_export"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "mtz_export" in out


def test_verify_unknown_filter_exits_2(capsys):
    assert main(["verify", "--only", "no_such_check"]) == 2
    assert capsys.readouterr().err == "no checks match 'no_such_check'\n"


def test_verify_detects_corrupted_catalog(monkeypatch, capsys):
    # fault injection: a wrong target distance must turn the check red
    from escape_solver import scenario

    def corrupted(n, m, p):
        spec = scenario.CATALOG["__orig_point_unit"](n, m, p)
        return scenario.replace(spec, base_boundary=scenario.PointTarget((1.05, 0.0)))

    monkeypatch.setitem(scenario.CATALOG, "__orig_point_unit",
                        scenario.CATALOG["point_unit"])
    monkeypatch.setitem(scenario.CATALOG, "point_unit", corrupted)
    rc = main(["verify", "--only", "point_unit"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_sweep_n_matches_convergence_study(tmp_path):
    from escape_solver.analysis import convergence_study
    from escape_solver.nlp_solver import SolveOptions

    rc = main(["sweep", "point_unit", "--param", "N", "--values", "4,8,16",
               "--out", str(tmp_path), "--multistart", "4", "--format", "csv"])
    assert rc == 0
    rows = (tmp_path / "sweep_point_unit_N.csv").read_text().strip().splitlines()
    swept = [float(r.split(",")[1]) for r in rows[1:]]
    rep = convergence_study("point_unit", [4, 8, 16],
                            opts=SolveOptions(multistart=4))
    assert swept == pytest.approx(list(rep.lengths()), abs=1e-12)


def test_solve_self_referential_scenario(tmp_path, capsys):
    rc = main(["solve", "zalgaller_class2", "--n", "45", "--out", str(tmp_path),
               "--multistart", "1", "--format", "csv"])
    assert rc == 0
    fields = capsys.readouterr().out.split(",")
    assert fields[0] == "zalgaller_class2"
    assert float(fields[4]) > 2.0


@pytest.mark.parametrize("strategy,n", [("exhaustive", 12), ("heldkarp", 21), ("mtz", 13)])
def test_solve_size_guard_exits_2(tmp_path, capsys, strategy, n):
    rc = main(["solve", "halfplane_unit", "--n", str(n), "--strategy", strategy,
               "--out", str(tmp_path), "--multistart", "1"])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_sweep_size_guard_exits_2(tmp_path, capsys):
    rc = main(["sweep", "point_unit", "--param", "N", "--values", "4,12",
               "--strategy", "exhaustive", "--out", str(tmp_path), "--multistart", "1",
               "--format", "csv"])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--closed"], ["--strategy", "hint"]])
def test_self_referential_refuses_ignored_flags(tmp_path, capsys, flag):
    rc = main(["solve", "zalgaller_class2", "--n", "20", *flag,
               "--out", str(tmp_path / "out"), "--multistart", "1"])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_self_referential_refuses_config_gamma(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "zalgaller_class2", "N": 20, "params": {"gamma": 0.5}}))
    assert main(["solve", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_sweep_bad_format_exits_2_before_solving(tmp_path, capsys):
    rc = main(["sweep", "point_unit", "--param", "N", "--values", "4",
               "--format", "svg,foo", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_writes_each_requested_format(tmp_path):
    rc = main(["sweep", "point_unit", "--param", "N", "--values", "4,5",
               "--format", "mtz,csv", "--out", str(tmp_path), "--multistart", "1"])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.glob("*.mtz")) == [
        "point_unit_N4_n4.mtz", "point_unit_N5_n5.mtz"]
    assert len(list(tmp_path.glob("point_unit_N*.csv"))) == 2
    assert not list(tmp_path.glob("*.svg"))


def test_sweep_n_keeps_theta(tmp_path, capsys):
    common = ["--theta", "1.0", "--out", str(tmp_path), "--multistart", "1",
              "--format", "csv"]
    assert main(["solve", "bisector_angle", "--n", "8", *common]) == 0
    solved = capsys.readouterr().out.split(",")[4].strip()
    assert main(["sweep", "bisector_angle", "--param", "N", "--values", "8", *common]) == 0
    assert capsys.readouterr().out.strip().endswith(f"length={solved}")


@pytest.mark.parametrize("param", ["N", "M"])
def test_sweep_non_integer_count_exits_2(tmp_path, capsys, param):
    rc = main(["sweep", "point_unit", "--param", param, "--values", "4,4.7",
               "--out", str(tmp_path / "out"), "--multistart", "1"])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("settings", [
    ["halfplane_unit", "--n", "6", "--m", "-3"],
    ["halfplane_unit", "--n", "6", "--m", "0"],
    ["circle_wf2", "--n", "4", "--theta", "nan"],
    ["halfplane_unit", "--n", "4", "--theta", "inf"]])
def test_solve_bad_start_count_or_angle_exits_2(tmp_path, capsys, settings):
    rc = main(["solve", *settings, "--out", str(tmp_path / "out"), "--multistart", "1"])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario,param,values", [
    ("halfplane_unit", "M", "1,0"), ("halfplane_unit", "M", "-2"),
    ("halfplane_unit", "theta", "0.5,nan"), ("circle_wf2", "theta", "inf,0.5")])
def test_sweep_bad_start_count_or_angle_exits_2_before_solving(tmp_path, capsys, scenario,
                                                                param, values):
    rc = main(["sweep", scenario, "--param", param, "--values", values, "--n", "4",
               "--out", str(tmp_path / "out"), "--multistart", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "invalid configuration" in captured.err and "length=" not in captured.out
    assert not (tmp_path / "out").exists()


def test_sweep_n_refuses_a_non_finite_theta(tmp_path, capsys):
    rc = main(["sweep", "circle_wf2", "--param", "N", "--values", "4", "--theta", "nan",
               "--out", str(tmp_path / "out"), "--multistart", "1"])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["solve", "halfplane_unit", "--theta", "0.5"],
    ["solve", "circle_wf2", "--theta", "0.5"],
    ["sweep", "halfplane_unit", "--param", "theta", "--values", "0.5"],
    ["sweep", "halfplane_unit", "--param", "N", "--values", "4", "--theta", "0.5"]])
def test_a_theta_for_a_family_without_one_exits_2(tmp_path, capsys, command):
    rc = main([*command, "--n", "4", "--out", str(tmp_path / "out"), "--multistart", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "invalid configuration" in captured.err and "takes no --theta" in captured.err
    assert not (tmp_path / "out").exists()


def test_meta_records_the_duality_gap(tmp_path, capsys):
    assert main(["solve", "halfplane_unit", "--n", "12", "--out", str(tmp_path),
                 "--multistart", "1", "--format", "csv"]) == 0
    meta = json.loads((tmp_path / "halfplane_unit_n12_m1.meta.json").read_text())
    assert 0.0 <= meta["gap"] <= 1e-9 * meta["length"]


def test_meta_names_the_branches_its_gap_certifies(tmp_path, capsys):
    """The gap holds for the solved order and branch assignment, so the meta
    file records both; the assignment is null where no boundary is a product."""
    for name in ("strip_middle_product", "halfplane_unit"):
        assert main(["solve", name, "--n", "8", "--out", str(tmp_path),
                     "--multistart", "1", "--format", "csv"]) == 0
    product = json.loads((tmp_path / "strip_middle_product_n8_m1.meta.json").read_text())
    assert product["branch_assignment"] == [1, 0] * 4 and len(product["order"]) == 8
    plain = json.loads((tmp_path / "halfplane_unit_n8_m1.meta.json").read_text())
    assert plain["branch_assignment"] is None


def test_triangle_general_without_its_edges_exits_2(tmp_path, capsys):
    assert main(["solve", "triangle_general", "--n", "3", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: triangle_general needs the edge parameters")
    assert "phi1, delta1, phi2, delta2, phi3, delta3" in err and "JSON config" in err
    assert not (tmp_path / "out").exists()
