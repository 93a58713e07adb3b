"""Command line front end: solve catalog scenarios, run parameter sweeps, and
execute the verification suite.

Exit codes: solve/sweep return 0 on convergence, 2 for invalid configuration,
3 for non-convergence; verify returns 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from .export import to_csv, to_mtz_text, to_svg
from .nlp_solver import NonConvergenceError, SolveOptions, solve_fixed_order, \
    solve_self_referential
from .order_search import (SizeGuardError, build_mtz_model, exhaustive, held_karp,
                           mtz_branch_and_bound, solve_alternating, two_opt)
from .scenario import CATALOG, load_config, make_scenario, build
from .verify import run_checks

STRATEGIES = ("hint", "exhaustive", "heldkarp", "twoopt", "mtz", "alternating")


def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="escape-solver",
                                 description="shortest escape-path solver")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("scenario", help="catalog name or JSON config path")
        p.add_argument("--n", type=int, default=90, help="orientation count")
        p.add_argument("--m", type=int, default=1, help="start count")
        p.add_argument("--theta", type=float, default=None, help="scenario angle parameter")
        p.add_argument("--strategy", choices=STRATEGIES, default=None,
                       help="order strategy (default: hint when the catalog has one)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--closed", action="store_true", help="path returns to the start")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", default="svg,csv", dest="formats",
                       help="comma list of svg,csv,mtz")
        p.add_argument("--multistart", type=int, default=4)

    ps = sub.add_parser("solve", help="solve one scenario and write artifacts")
    add_common(ps)

    pv = sub.add_parser("verify", help="run the verification suite")
    pv.add_argument("--only", default=None, help="substring filter on check names")

    pw = sub.add_parser("sweep", help="solve across one swept parameter")
    add_common(pw)
    pw.add_argument("--param", choices=("theta", "N", "M"), required=True)
    pw.add_argument("--values", required=True, help="comma-separated numbers")
    return ap


def _parse_formats(text: str) -> frozenset:
    """The set of artifact formats named in a comma list; unknown names raise."""
    formats = frozenset(f.strip() for f in text.split(",") if f.strip())
    unknown = formats - {"svg", "csv", "mtz"}
    if unknown:
        raise ValueError(f"unknown formats: {sorted(unknown)}")
    return formats


def _load_spec(args, **override):
    """The scenario spec the command line names; `override` replaces some of its
    settings (n, m, theta) by name.  A start count below 1, a non-finite
    angle or an angle the scenario does not take raises ValueError."""
    args = argparse.Namespace(**{**vars(args), **override})
    if args.m < 1:
        raise ValueError(f"the start count M must be at least 1, not {args.m}")
    if args.theta is not None and not math.isfinite(args.theta):
        raise ValueError(f"theta must be finite, not {args.theta}")
    params = {}
    if args.theta is not None:
        params["theta"] = args.theta
    if args.closed:
        params["mode"] = "escape_closed"
    if args.scenario.endswith(".json") or os.path.sep in args.scenario:
        spec = load_config(args.scenario)
    else:
        if args.scenario not in CATALOG:
            raise ValueError(f"unknown scenario {args.scenario!r}")
        spec = make_scenario(args.scenario, args.n, args.m, **params)
    if args.theta is not None and spec.params.get("theta") != args.theta:
        raise ValueError(f"{args.scenario} takes no --theta")
    return spec


def _check_self_referential(spec, strategy) -> None:
    """Refuse what the self-referential loop ignores: it is open, finds gamma, fixes its order."""
    if spec.params.get("self_referential") and (
            spec.mode != "escape_open" or spec.params.get("gamma") or strategy is not None):
        raise ValueError(f"{spec.name} takes no --closed, --strategy or gamma")


def _solve_with_strategy(spec, strategy, opts):
    if spec.params.get("self_referential"):
        return solve_self_referential(None, None, opts, n=spec.n_orientations), None
    inst = build(spec)
    if strategy is None:
        strategy = "hint" if inst.order_hint is not None else "alternating"
    if strategy == "hint":
        return solve_fixed_order(inst, inst.order_hint or range(inst.size), opts), inst
    if strategy == "exhaustive":
        return exhaustive(inst, opts), inst
    if strategy == "heldkarp":
        return held_karp(inst, opts), inst
    if strategy == "twoopt":
        return two_opt(inst, inst.order_hint or range(inst.size), opts), inst
    if strategy == "mtz":
        sol, _model = mtz_branch_and_bound(inst, opts)
        return sol, inst
    if strategy == "alternating":
        return solve_alternating(inst, opts), inst
    raise ValueError(f"unknown strategy {strategy!r}")


def _artifacts(sol, inst, spec, formats, seed: int, outdir: Path, stem: str):
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        (outdir / f"{stem}.csv").write_text(to_csv(sol), encoding="utf-8")
        written.append(f"{stem}.csv")
    if "svg" in formats and inst is not None:
        svg = to_svg(sol, inst)
        svg = svg.replace("<svg ", f"<!-- scenario={spec.name} seed={seed} -->\n<svg ", 1)
        (outdir / f"{stem}.svg").write_text(svg, encoding="utf-8")
        written.append(f"{stem}.svg")
    if "mtz" in formats and inst is not None:
        model = build_mtz_model(inst, sol)
        (outdir / f"{stem}.mtz").write_text(to_mtz_text(model, inst), encoding="utf-8")
        written.append(f"{stem}.mtz")
    meta = {"scenario": spec.name, "n": spec.n_orientations, "m": spec.n_starts,
            "seed": seed, "length": sol.length, "max_residual": sol.max_residual,
            "gap": sol.gap, "converged": sol.converged, "order": list(sol.order),
            "branch_assignment": (None if sol.branch_assignment is None
                                  else list(sol.branch_assignment))}
    (outdir / f"{stem}.meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return written


def cmd_solve(args) -> int:
    try:
        spec = _load_spec(args)
        opts = SolveOptions(seed=args.seed, multistart=args.multistart)
        formats = _parse_formats(args.formats)
        _check_self_referential(spec, args.strategy)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        sol, inst = _solve_with_strategy(spec, args.strategy, opts)
    except SizeGuardError as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 2
    except NonConvergenceError as e:
        print(f"non-convergence: {e}", file=sys.stderr)
        return 3
    secs = time.perf_counter() - t0
    stem = f"{spec.name}_n{spec.n_orientations}_m{spec.n_starts}"
    _artifacts(sol, inst, spec, formats, args.seed, Path(args.out), stem)
    strategy = args.strategy or ("hint" if spec.order_hint is not None else "alternating")
    print(f"{spec.name}, {spec.n_orientations}, {spec.n_starts}, {strategy}, "
          f"{sol.length:.9f}, {sol.max_residual:.3e}, {secs:.2f}")
    return 0 if sol.converged else 3


def cmd_verify(args) -> int:
    try:
        ok = run_checks(only=args.only)
    except KeyError as e:
        print(e.args[0], file=sys.stderr)   # str() of a KeyError is its repr
        return 2
    return 0 if ok else 1


def _sweep_specs(args, values) -> list:
    """One spec per swept value: the solve settings with that one field replaced."""
    if args.scenario not in CATALOG:
        raise ValueError(f"sweep takes a catalog scenario, not {args.scenario!r}")
    field = {"theta": "theta", "N": "n", "M": "m"}[args.param]
    specs = []
    for v in values:
        if field != "theta" and not v.is_integer():
            raise ValueError(f"{args.param} must be an integer, not {v:g}")
        spec = _load_spec(args, **{field: v if field == "theta" else int(v)})
        _check_self_referential(spec, args.strategy)
        specs.append(spec)
    return specs


def cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not values:
            raise ValueError("empty value list")
        opts = SolveOptions(seed=args.seed, multistart=args.multistart)
        formats = _parse_formats(args.formats)
        specs = _sweep_specs(args, values)
    except (ValueError, KeyError) as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 2
    rows = []
    outdir = Path(args.out)
    for v, spec in zip(values, specs):
        try:
            sol, inst = _solve_with_strategy(spec, args.strategy, opts)
        except SizeGuardError as e:
            print(f"invalid configuration: {e}", file=sys.stderr)
            return 2
        except NonConvergenceError as e:
            print(f"non-convergence at {args.param}={v}: {e}", file=sys.stderr)
            return 3
        rows.append((v, sol.length))
        if formats:
            stem = f"{spec.name}_{args.param}{v:g}_n{spec.n_orientations}"
            _artifacts(sol, inst, spec, formats, args.seed, outdir, stem)
        print(f"{spec.name}, {args.param}={v:g}, length={sol.length:.9f}")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"sweep_{args.scenario}_{args.param}.csv").write_text(
        to_csv(rows), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_sweep(args)


if __name__ == "__main__":
    raise SystemExit(main())
