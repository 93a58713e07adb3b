"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the solver is imported from ./src with
BLAS/OpenMP pinned to one thread.  A pass drives the library the way
``escape-solver solve`` does: it constructs every instance of the workload
(``make_scenario`` + ``build``, or a point family generated from the seed),
solves it with its strategy and exports the solution as CSV, SVG and MTZ.
Passes repeat until the time budget is spent and every answer is checked.
The last stdout line is the result object; with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics, from a run that
alternates untraced and traced passes so that it can also report the tracing
overhead.  Metric names and units come from BENCHMARK.json.  The answer record
(lengths, orders, residuals), the environment and, with --trace 1, the spans
are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS and OpenMP read their thread counts when numpy and scipy load, so they
# are pinned here, before those imports.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
os.environ.pop("ESCAPE_SOLVER_THREADS", None)
if not (SRC / "escape_solver" / "__init__.py").is_file():
    sys.exit(f"no solver sources under {SRC}; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

from escape_solver import geometry, nlp_solver, order_search, scenario  # noqa: E402
from escape_solver.export import to_csv, to_mtz_text, to_svg  # noqa: E402
from escape_solver.nlp_solver import SolveOptions, solve_fixed_order  # noqa: E402
from escape_solver.order_search import (build_mtz_model, held_karp,  # noqa: E402
                                        mtz_branch_and_bound, solve_alternating, two_opt)
from escape_solver.scenario import (HALFPLANE_EXACT, NONUNIQUE_RADIUS,  # noqa: E402
                                    STRIP_FULL_REFERENCE, STRIP_MIDDLE_REFERENCE, Instance,
                                    build, make_scenario)

from spans import INFO, Tracer  # noqa: E402

# verify.py's solver settings.  The solver seed stays 0: on the non-convex
# families it picks between local minima (strip_middle_product N=20 lands at
# 2.125 or 1.627 depending on it), so tying it to --seed would make lengths and
# times jump between seeds.  --seed drives the generated point families.
OPTS = SolveOptions(multistart=2, seed=0)

# A point family is a fixed base set turned about the start by a seeded angle.
# Each seed changes every coordinate the solver sees while the optimal lengths
# stay put up to rounding, so lengths and times compare across seeds.  A seeded
# jitter of even 1e-3 instead sends first-improvement 2-opt at K=60 to local
# minima up to 3% apart, which would swamp length_sum.
BASE_SEED = 20240901

# (label, strategy, source); a source is ("catalog", name, N, M) or ("points", K).
# Sizes are scaled from the ROADMAP baseline so one pass takes a few seconds on
# 2 cores; the answer checks below hold at these sizes.
WORKLOADS = {
    "convex_polish": (
        ("halfplane_unit", "hint", ("catalog", "halfplane_unit", 90, 1)),
        ("strip_middle", "hint", ("catalog", "strip_middle", 60, 1)),
        ("opaque_circle_tangent", "hint", ("catalog", "opaque_circle_tangent", 45, 1)),
        ("plane3d", "hint", ("catalog", "plane3d", 3, 3)),
    ),
    "order_search": (
        ("circle_wf2", "alternating", ("catalog", "circle_wf2", 7, 2)),
        ("points14.heldkarp", "heldkarp", ("points", 14)),
        ("points12.heldkarp", "heldkarp", ("points", 12)),
        ("points12.mtz", "mtz", ("points", 12)),
        ("points12.twoopt", "twoopt", ("points", 12)),
        ("points60.alternating", "alternating", ("points", 60)),
    ),
    "nonconvex_build": (
        ("strip_wf2", "hint", ("catalog", "strip_wf2", 6, 4)),
        ("strip_middle_product", "hint", ("catalog", "strip_middle_product", 20, 1)),
        ("circle_interior_nonunique", "hint", ("catalog", "circle_interior_nonunique", 30, 1)),
    ),
}


def _natural(inst):
    return inst.order_hint or range(inst.size)


# strategy -> (layer the call enters, call); the same dispatch as `solve --strategy`
STRATEGIES = {
    "hint": ("nlp_solver", lambda inst: solve_fixed_order(inst, _natural(inst), OPTS)),
    "alternating": ("order_search", lambda inst: solve_alternating(inst, OPTS)),
    "heldkarp": ("order_search", lambda inst: held_karp(inst, OPTS)),
    "mtz": ("order_search", lambda inst: mtz_branch_and_bound(inst, OPTS)[0]),
    "twoopt": ("order_search", lambda inst: two_opt(inst, _natural(inst), OPTS)),
}


def point_family(seed: int, k: int) -> np.ndarray:
    base = np.random.default_rng(BASE_SEED + k).uniform(-1.0, 1.0, (k, 2))
    a = np.random.default_rng([seed, k]).uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    return base @ rot.T


def make_instance(source, seed: int) -> Instance:
    if source[0] == "catalog":
        _, name, n, m = source
        return build(make_scenario(name, n, m))
    pts = [tuple(map(float, p)) for p in point_family(seed, source[1])]
    return Instance(
        name=f"points{len(pts)}", boundaries=tuple(geometry.PointTarget(p) for p in pts),
        mode="escape_open", dimension=2, start_anchor=(0.0, 0.0),
        angles=(0.0,) * len(pts), start_index=(0,) * len(pts),
        orient_index=tuple(range(len(pts))))


def answer_misses(answers: dict) -> list:
    """(label, detail) for every answer that breaks a relation verify.py checks."""
    L = {label: rec["length"] for label, rec in answers.items()}
    out = []

    def need(label, ok, detail):
        if label in L and not ok:
            out.append((label, detail))

    if "halfplane_unit" in L:
        err = abs(L["halfplane_unit"] - HALFPLANE_EXACT)
        need("halfplane_unit", err <= 1e-3, f"|L - HALFPLANE_EXACT| = {err:.3e} > 1e-3")
    need("strip_middle", L.get("strip_middle", 0.0) <= STRIP_MIDDLE_REFERENCE + 1e-6,
         f"L = {L.get('strip_middle')!r} > STRIP_MIDDLE_REFERENCE + 1e-6")
    need("opaque_circle_tangent",
         math.pi <= L.get("opaque_circle_tangent", math.pi) <= 2 * math.pi,
         f"L = {L.get('opaque_circle_tangent')!r} outside [pi, 2pi]")
    if "circle_interior_nonunique" in L:
        err = abs(L["circle_interior_nonunique"] - 2.0 * NONUNIQUE_RADIUS)
        need("circle_interior_nonunique", err <= 1e-2, f"|L - diameter| = {err:.3e} > 1e-2")
    # a finite family is a relaxation of the full strip problem
    need("strip_wf2", L.get("strip_wf2", 0.0) <= STRIP_FULL_REFERENCE,
         f"L = {L.get('strip_wf2')!r} > STRIP_FULL_REFERENCE")
    if "points12.heldkarp" in L:
        hk = L["points12.heldkarp"]
        need("points12.mtz", L.get("points12.mtz", hk) == hk,
             f"branch and bound {L.get('points12.mtz')!r} != Held-Karp {hk!r}")
        need("points12.twoopt", L.get("points12.twoopt", hk) >= hk - 1e-12,
             f"2-opt {L.get('points12.twoopt')!r} < Held-Karp {hk!r} - 1e-12")
    return out


# The shared host this benchmark was tuned on changes speed by up to 70% over
# spells of about ten seconds, which spread the medians of 40-second runs over
# an interquartile range of 10-23% of their median.  So a fixed probe that runs
# no solver code precedes every operation, and the operation's times are scaled
# by PROBE_REF_S / probe time: the end-to-end times are seconds at the host
# speed at which the probe takes PROBE_REF_S (its median between operations on
# the 2-core machine the bounds were set on).  A solver change moves them as it
# moves raw seconds; host drift mostly cancels.
PROBE_REF_S = 0.045


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter, dict and small-array work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    a = np.arange(2000.0)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0) - 0.5
    d = {}
    for i in range(60_000):
        d[i % 977] = d.get(i % 977, 0) + i
    return time.perf_counter() - t0


@contextmanager
def phase(times: dict, bucket: str, scale: float, layer: str, tracer):
    """Time one call into a layer; the traced run also records it as a span."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            yield
        else:
            with tracer.span(layer):
                yield
    finally:
        dt = time.perf_counter() - t0
        times[bucket] += dt * scale
        times["raw"] += dt


def run_pass(workload: str, seed: int, tracer) -> dict:
    times = {"setup": 0.0, "solve": 0.0, "export": 0.0, "raw": 0.0}
    answers, misses = {}, []
    boundaries = export_bytes = rounds = 0
    for label, strategy, source in WORKLOADS[workload]:
        scale = PROBE_REF_S / probe()
        with phase(times, "setup", scale, "scenario", tracer):
            inst = make_instance(source, seed)
        boundaries += inst.size
        layer, solve = STRATEGIES[strategy]
        try:
            with phase(times, "solve", scale, layer, tracer):
                sol = solve(inst)
        except Exception as e:  # a solve that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            misses.append((label, f"raised {type(e).__name__}: {e}"))
            continue
        answers[label] = {"length": sol.length, "order": list(sol.order),
                          "max_residual": sol.max_residual}
        if not sol.converged or not sol.max_residual <= OPTS.feas_tol:
            misses.append((label, f"converged={sol.converged} "
                                  f"max_residual={sol.max_residual!r} > feas_tol"))
        if strategy == "alternating":
            rounds += sol.iterations
        exports = (("csv", lambda: to_csv(sol)), ("svg", lambda: to_svg(sol, inst)),
                   ("mtz", lambda: to_mtz_text(build_mtz_model(inst, sol), inst)))
        for fmt, emit in exports:
            with phase(times, "export", scale, "export." + fmt, tracer):
                text = emit()
            export_bytes += len(text.encode("utf-8"))
    misses += answer_misses(answers)
    return {"times": times, "answers": answers, "misses": misses,
            "boundaries": boundaries, "export_bytes": export_bytes, "rounds": rounds}


def install(tracer: Tracer) -> None:
    """Wrap the library at its module boundaries (the traced run only)."""
    def keep_length(rec, args, sol):
        rec[INFO] = sol.length

    def lbfgs_counts(rec, args, res):
        tracer.add("nlp_solver.lbfgs_nfev", res.nfev)
        tracer.add("nlp_solver.lbfgs_nit", res.nit)

    # solves made from inside the order layer; the benchmark's own calls get
    # their span from phase()
    tracer.wrap_span(order_search, "solve_fixed_order", "nlp_solver", keep_length)
    tracer.wrap_span(nlp_solver, "minimize", "nlp_solver.lbfgs", lbfgs_counts)
    tracer.wrap_span(scipy.sparse.linalg, "splu", "nlp_solver.splu")
    tracer.wrap_count(geometry, "project", "geometry.project_calls", time_key="geometry.s")
    tracer.wrap_count(geometry, "scaled_residual", "geometry.residual_calls",
                      time_key="geometry.s")
    tracer.wrap_count(scenario, "eval_boundary", "scenario.eval_calls")
    # computed, not measured: a subset DP over K nodes has K * 2^K states.  The
    # DP is a private function, so renaming it stops the traced run with an
    # AttributeError instead of reporting 0 states.
    tracer.wrap_count(order_search, "_held_karp_order", "order_search.dp_states",
                      weight=lambda args: args[0].shape[0] * 2 ** args[0].shape[0])


def layer_metrics(tracer: Tracer, run: int, result: dict) -> dict:
    tot = tracer.layer_totals(run)
    counts = tracer.counts[run]
    resolves = improved = 0
    for lengths in tracer.children(run, "order_search", "nlp_solver"):
        best = math.inf
        for i, length in enumerate(lengths):
            if i:
                resolves += 1
                improved += length is not None and length < best
            if length is not None:
                best = min(best, length)
    return {
        "scenario.setup_s": tot["scenario"][2],
        "scenario.eval_calls": counts["scenario.eval_calls"],
        "scenario.boundaries": result["boundaries"],
        "nlp_solver.calls": tot["nlp_solver"][0],
        "nlp_solver.self_s": tot["nlp_solver"][1],
        "nlp_solver.lbfgs_calls": tot["nlp_solver.lbfgs"][0],
        "nlp_solver.lbfgs_nfev": counts["nlp_solver.lbfgs_nfev"],
        "nlp_solver.lbfgs_nit": counts["nlp_solver.lbfgs_nit"],
        "nlp_solver.lbfgs_s": tot["nlp_solver.lbfgs"][2],
        "nlp_solver.splu_calls": tot["nlp_solver.splu"][0],
        "nlp_solver.splu_s": tot["nlp_solver.splu"][2],
        "geometry.project_calls": counts["geometry.project_calls"],
        "geometry.residual_calls": counts["geometry.residual_calls"],
        "geometry.s": counts["geometry.s"],
        "order_search.self_s": tot["order_search"][1],
        "order_search.dp_states": counts["order_search.dp_states"],
        "order_search.resolves": resolves,
        "order_search.improve_ratio": improved / resolves if resolves else 0.0,
        "order_search.rounds": result["rounds"],
        "export.csv_s": tot["export.csv"][2],
        "export.svg_s": tot["export.svg"][2],
        "export.mtz_s": tot["export.mtz"][2],
        "export.bytes": result["export_bytes"],
    }


def tree_hash() -> str:
    """Hash of the solver and benchmark sources: reruns with an equal hash
    must reproduce every answer bitwise."""
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("ESCAPE_SOLVER_THREADS",)},
        "machine": platform.machine(),
    }


def inputs(workload: str, seed: int) -> list:
    out = []
    for label, strategy, source in WORKLOADS[workload]:
        item = {"label": label, "strategy": strategy, "source": list(source)}
        if source[0] == "points":
            item["points"] = point_family(seed, source[1]).tolist()
        out.append(item)
    return out


def changed_answers(answers: dict, prev: dict, what: str) -> list:
    """(label, detail) for every answer whose length or order differs from ``prev``."""
    out = []
    for label, rec in answers.items():
        old = prev.get(label)
        if old is not None and (old["length"] != rec["length"] or old["order"] != rec["order"]):
            out.append((label, f"length {rec['length']!r} != {what} {old['length']!r}"))
    return out


def previous_answers(path: Path, tree: str) -> dict:
    """The answers of an earlier run of the same sources, workload and seed."""
    try:
        prev = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return prev.get("answers", {}) if prev.get("tree") == tree else {}


def run_passes(workload: str, seed: int, seconds: float, tracer) -> list:
    """Repeat passes until the budget is spent; with a tracer, every second
    pass is traced, so that traced and untraced passes see the same machine
    load and the tracing overhead can be measured."""
    results = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = tracer is not None and len(results) % 2 == 1
        if traced:
            tracer.run = len(results)
            install(tracer)
        res = run_pass(workload, seed, tracer if traced else None)
        if traced:
            tracer.unpatch()
        res["traced"] = traced
        last = time.perf_counter() - t0
        if results:  # every pass must reproduce the first one bitwise
            res["misses"] += changed_answers(res["answers"], results[0]["answers"], "first pass")
        results.append(res)
        enough = tracer is None or len(results) >= 2
        if enough and time.perf_counter() - t_start + last > seconds:
            return results


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="escape-solver benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    tracer = Tracer() if args.trace else None
    results = run_passes(args.workload, args.seed, args.seconds, tracer)

    record = {"workload": args.workload, "seed": args.seed, "tree": tree_hash(),
              "environment": environment(), "inputs": inputs(args.workload, args.seed),
              "answers": results[0]["answers"]}
    OUT.mkdir(parents=True, exist_ok=True)
    answers_path = OUT / f"{args.workload}-seed{args.seed}.json"
    # the rerun comparison is of the first pass's answers, so its misses join
    # that pass's and an operation is counted as failed at most once per pass
    results[0]["misses"] += changed_answers(
        record["answers"], previous_answers(answers_path, record["tree"]), "previous run")
    notes = [f"pass {i}: {label}: {detail}"
             for i, r in enumerate(results) for label, detail in r["misses"]]
    record["misses"] = notes
    answers_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    attempted = len(WORKLOADS[args.workload]) * len(results)
    failed = sum(len({label for label, _ in r["misses"]}) for r in results)
    med = statistics.median

    def wall(t):
        return t["setup"] + t["solve"] + t["export"]

    times = [r["times"] for r in results if not r["traced"]]
    walls = [wall(t) for t in times]
    if tracer is None:
        values = {
            "setup_s": med([t["setup"] for t in times]),
            "solve_s": med([t["solve"] for t in times]),
            "wall_s": med(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "length_sum": math.fsum(rec["length"] for rec in record["answers"].values()),
            "ok_frac": (attempted - failed) / attempted,
        }
        names = spec["end_to_end"]
    else:
        traced = [(i, r) for i, r in enumerate(results) if r["traced"]]
        per_pass = [layer_metrics(tracer, i, r) for i, r in traced]
        # median_low keeps counts whole: every traced pass makes the same calls
        values = {k: statistics.median_low([p[k] for p in per_pass]) for k in per_pass[0]}
        values["trace.overhead_s"] = med([wall(r["times"]) for _, r in traced]) - med(walls)
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        tracer.dump(trace_path)
        names = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    print(f"# {args.workload} seed={args.seed} passes={len(results)} "
          f"untraced pass_wall_s={[round(x, 3) for x in walls]} "
          f"raw={[round(t['raw'], 3) for t in times]} "
          f"answers={answers_path.relative_to(ROOT)}")
    for note in notes:
        print(f"# FAIL {note}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
