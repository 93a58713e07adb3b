"""Answer sweeps over the product families, the edge strip, the circle
families and the order strategies: solve a fixed set of instances, write each
answer to JSON, and compare two such files.

    python3 tools/product_sweep.py run {hint,modes,branches,segments,edge,curved,families,orders} OUT.json [--src DIR]
    python3 tools/product_sweep.py compare BEFORE.json AFTER.json

Sweeps (every solve on the instance's hint order):
  hint      strip_middle_product and perp_lines_product at N 8/20/32/44 and
            circle_plus_segment at N 8/12/16/20, open, multistart 1/2/4,
            seeds 0/1: 72 free solves.
  modes     strip_middle_product N 8/12/16/40/80, perp_lines_product N
            12/16/40/80 and circle_plus_segment N 24/48/90/360, open and
            closed, multistart 1/2, seed 0: 52 free solves.
  branches  the hint sweep's instances plus strip_wf2 6x4, open and closed,
            multistart 1/2/4, seed 0, each solved with both uniform
            assignments (solve_branch_strategies), both alternating ones and
            free branches: 390 solves.
  segments  circle_plus_segment at N 24/48/90/180/360, open and closed,
            multistart 2, seed 0, each solved with both uniform and both
            alternating assignments: 40 solves on segment boxes.
  edge      zalgaller_class2 at N 4/8/12/20/45/90/180/360/720, multistart
            1/2, seed 0, each through solve_self_referential: 18 solves of
            the first-leg angle search.
  curved    circle_interior_nonunique, circle_interior_02 and circle_exterior
            at N 30/90/360, open and closed, multistart 1/2, seed 0 (36 free
            solves), and circle_wf2 7x2, 8x2 and 12x4 at multistart 1/2,
            seed 0, each through solve_alternating (6 solves of the
            alternating order loop, from the natural order): 42 solves.
  families  triangle_equilateral 6x3 and 12x6, triangle_general with the
            equilateral edges at 6x16 and 12x36, and sector at 90 and 60
            degrees (sector, sector60) at 6x3, 8x4 and 12x6, multistart 1/2,
            seed 0, each through solve_alternating: 20 solves.
  orders    the order strategies on seeded point families (K points drawn
            uniformly from [-1, 1]^2): held_karp at K 8/12/14/16/18,
            mtz_branch_and_bound at K 8/10/12, two_opt (from the natural
            order) and solve_alternating at K 30/60/120; and circle_wf2 4x3,
            6x2, 7x2 and 8x2 through solve_alternating; open and closed,
            multistart 1/2, seed 0: 72 solves.

`run` imports the solver from DIR (default: this checkout's src) with BLAS
pinned to one thread, and records per solve the length, the branches, the
points, the time and the fixed-order solves it took (0 for a plain
fixed-order solve).  An alternating-loop solve's points are in its final
visiting order, so a changed order shows as moved points.  `compare` prints, per family, how many solves end
higher, lower, bitwise equal, or equal in length with moved points, and the
time each side took; then the times per family and N; then every solve
whose length or points moved.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

HINT = [("strip_middle_product", n) for n in (8, 20, 32, 44)] + \
       [("perp_lines_product", n) for n in (8, 20, 32, 44)] + \
       [("circle_plus_segment", n) for n in (8, 12, 16, 20)]
MODES = [("strip_middle_product", n) for n in (8, 12, 16, 40, 80)] + \
        [("perp_lines_product", n) for n in (12, 16, 40, 80)] + \
        [("circle_plus_segment", n) for n in (24, 48, 90, 360)]
SEGMENTS = [("circle_plus_segment", n) for n in (24, 48, 90, 180, 360)]
EDGE = (4, 8, 12, 20, 45, 90, 180, 360, 720)
CIRCLES = [(name, n) for name in ("circle_interior_nonunique", "circle_interior_02",
                                  "circle_exterior") for n in (30, 90, 360)]
LOOPS = ((7, 2), (8, 2), (12, 4))   # circle_wf2 (N, M)
_INRADIUS = math.sqrt(3.0) / 6.0   # triangle_equilateral's edges, in normal form
_EQUILATERAL = {"phi1": -math.pi / 2.0, "delta1": _INRADIUS, "phi2": -math.pi / 6.0,
                "delta2": -_INRADIUS, "phi3": math.pi / 6.0, "delta3": _INRADIUS}
# label -> (catalog name, params, (N, M) sizes)
FAMILIES = {
    "triangle_equilateral": ("triangle_equilateral", {}, ((6, 3), (12, 6))),
    "triangle_general": ("triangle_general", _EQUILATERAL, ((6, 16), (12, 36))),
    "sector": ("sector", {}, ((6, 3), (8, 4), (12, 6))),
    "sector60": ("sector", {"phi2": math.pi / 3.0}, ((6, 3), (8, 4), (12, 6))),
}
# order strategy -> point-family sizes K
ORDER_POINTS = {"heldkarp": (8, 12, 14, 16, 18), "mtz": (8, 10, 12), "twoopt": (30, 60, 120),
                "loop": (30, 60, 120)}
ORDER_LOOPS = ((4, 3), (6, 2), (7, 2), (8, 2))   # circle_wf2 (N, M)
OPEN, CLOSED = "escape_open", "escape_closed"
ASSIGNED = (("uniform", 0), ("uniform", 1), ("alternating", 0), ("alternating", 1))


def cases(sweep: str):
    """(key, family, n, m, mode, multistart, seed, assignment) per solve;
    assignment is None (free), ("uniform", j), ("alternating", j),
    "angle" (the first-leg angle search of zalgaller_class2), "loop"
    (solve_alternating) or an order strategy of ORDER_POINTS; the family
    "points.<strategy>" is n seeded points."""
    if sweep == "hint":
        for (name, n), ms, seed in ((c, ms, s) for c in HINT for ms in (1, 2, 4) for s in (0, 1)):
            yield f"{name} {n} open ms{ms} seed{seed}", name, n, 1, OPEN, ms, seed, None
    elif sweep == "modes":
        for (name, n), mode, ms in ((c, md, ms) for c in MODES for md in (OPEN, CLOSED)
                                    for ms in (1, 2)):
            yield f"{name} {n} {mode[7:]} ms{ms}", name, n, 1, mode, ms, 0, None
    elif sweep == "branches":
        for (name, n, m), mode, ms in ((c, md, ms) for c in [(*c, 1) for c in HINT]
                                       + [("strip_wf2", 6, 4)]
                                       for md in (OPEN, CLOSED) for ms in (1, 2, 4)):
            for a in ASSIGNED + (None,):
                tag = "free" if a is None else f"{a[0]}{a[1]}"
                yield f"{name} {n}x{m} {mode[7:]} ms{ms} {tag}", name, n, m, mode, ms, 0, a
    elif sweep == "segments":
        for (name, n), mode, a in ((c, md, a) for c in SEGMENTS for md in (OPEN, CLOSED)
                                   for a in ASSIGNED):
            yield f"{name} {n} {mode[7:]} ms2 {a[0]}{a[1]}", name, n, 1, mode, 2, 0, a
    elif sweep == "edge":
        for n, ms in ((n, ms) for n in EDGE for ms in (1, 2)):
            yield f"zalgaller_class2 {n} ms{ms}", "zalgaller_class2", n, 1, OPEN, ms, 0, "angle"
    elif sweep == "curved":
        for (name, n), mode, ms in ((c, md, ms) for c in CIRCLES for md in (OPEN, CLOSED)
                                    for ms in (1, 2)):
            yield f"{name} {n} {mode[7:]} ms{ms}", name, n, 1, mode, ms, 0, None
        for (n, m), ms in ((c, ms) for c in LOOPS for ms in (1, 2)):
            yield f"circle_wf2 {n}x{m} ms{ms} loop", "circle_wf2", n, m, OPEN, ms, 0, "loop"
    elif sweep == "families":
        for label, (_, _, sizes) in FAMILIES.items():
            for (n, m), ms in ((c, ms) for c in sizes for ms in (1, 2)):
                yield f"{label} {n}x{m} ms{ms} loop", label, n, m, OPEN, ms, 0, "loop"
    elif sweep == "orders":
        for strategy, sizes in ORDER_POINTS.items():
            for k, mode, ms in ((k, md, ms) for k in sizes for md in (OPEN, CLOSED)
                                for ms in (1, 2)):
                yield (f"points.{strategy} {k} {mode[7:]} ms{ms}", f"points.{strategy}", k, 1,
                       mode, ms, 0, strategy)
        for (n, m), mode, ms in ((c, md, ms) for c in ORDER_LOOPS for md in (OPEN, CLOSED)
                                 for ms in (1, 2)):
            yield (f"circle_wf2 {n}x{m} {mode[7:]} ms{ms} loop", "circle_wf2", n, m, mode, ms, 0,
                   "loop")
    else:
        raise SystemExit(f"unknown sweep {sweep!r}")


def _point_family(k: int, mode: str):
    """K points drawn uniformly from [-1, 1]^2 (seeded by K), anchored at the origin."""
    import numpy as np
    from escape_solver.geometry import PointTarget
    from escape_solver.scenario import Instance

    pts = np.random.default_rng([20240901, k]).uniform(-1.0, 1.0, (k, 2)).tolist()
    return Instance(name=f"points{k}", boundaries=tuple(PointTarget(tuple(p)) for p in pts),
                    mode=mode, dimension=2, start_anchor=(0.0, 0.0), angles=(0.0,) * k,
                    start_index=(0,) * k, orient_index=tuple(range(k)))


def run(sweep: str, out: Path, src: Path):
    sys.path.insert(0, str(src))
    from escape_solver.nlp_solver import (NonConvergenceError, SolveOptions,
                                          solve_branch_strategies, solve_fixed_order,
                                          solve_self_referential)
    from escape_solver.order_search import (held_karp, mtz_branch_and_bound,
                                            solve_alternating, two_opt)
    from escape_solver.scenario import build, make_scenario

    records = {}
    for key, name, n, m, mode, ms, seed, assignment in cases(sweep):
        # the angle search builds its own instances, one per angle
        catalog, params, _ = FAMILIES.get(name, (name, {}, ()))
        if assignment == "angle":
            inst = None
        elif name.startswith("points."):
            inst = _point_family(n, mode)
        else:
            inst = build(make_scenario(catalog, n, m, mode=mode, **params))
        opts = SolveOptions(multistart=ms, seed=seed)
        t0 = time.perf_counter()
        try:
            if assignment == "angle":
                sol = solve_self_referential(n, opts)
            elif assignment == "loop":
                sol = solve_alternating(inst, opts)
            elif assignment == "heldkarp":
                sol = held_karp(inst, opts)
            elif assignment == "mtz":
                sol = mtz_branch_and_bound(inst, opts)[0]
            elif assignment == "twoopt":
                sol = two_opt(inst, range(n), opts)
            elif assignment is None:
                sol = solve_fixed_order(inst, inst.order_hint, opts)
            elif assignment[0] == "uniform":
                sol = solve_branch_strategies(inst, opts)[assignment[1]]
            else:
                alternating = tuple((i + assignment[1]) % 2 for i in range(inst.size))
                sol = solve_fixed_order(inst, inst.order_hint, opts,
                                        branch_assignment=alternating)
            error = None
        except NonConvergenceError as exc:
            sol, error = exc.best, str(exc)
        records[key] = {
            "family": name, "time_s": time.perf_counter() - t0, "length": sol.length,
            "branches": "".join(map(str, sol.branch_assignment or ())),
            "points": sol.points().ravel().tolist(), "solves": sol.iterations, "error": error}
    out.write_text(json.dumps({"sweep": sweep, "src": str(src), "records": records}, indent=1))
    print(f"{len(records)} solves, {sum(r['time_s'] for r in records.values()):.2f} s -> {out}")


def compare(before: Path, after: Path):
    a, b = (json.loads(p.read_text())["records"] for p in (before, after))
    if a.keys() != b.keys():
        raise SystemExit("the files hold different solves")
    counts = defaultdict(lambda: defaultdict(int))
    times = defaultdict(lambda: [0.0, 0.0])   # (family, size in the key) -> before, after
    moved = []
    for key, x in a.items():
        y = b[key]
        if y["length"] > x["length"]:
            verdict = "higher"
        elif y["length"] < x["length"]:
            verdict = "lower"
        elif y["points"] == x["points"] and y["branches"] == x["branches"]:
            verdict = "bitwise"
        else:
            verdict = "points moved"
        c = counts[x["family"]]
        c[verdict] += 1
        c["before_s"] += x["time_s"]
        c["after_s"] += y["time_s"]
        t = times[x["family"], " ".join(key.split()[1:2])]
        t[0] += x["time_s"]
        t[1] += y["time_s"]
        # what else the solve chose: its branches, or the solves an angle search took
        what = (f"{x['branches']} -> {y['branches']}" if x["branches"] or y["branches"]
                else f"solves {x.get('solves', 0)} -> {y.get('solves', 0)}")
        if verdict in ("higher", "lower") or x["error"] != y["error"]:
            moved.append(f"  {verdict:6} {key}: {x['length']!r} -> {y['length']!r} ({what})")
        elif verdict == "points moved":
            shift = max((abs(p - q) for p, q in zip(x["points"], y["points"])), default=0.0)
            moved.append(f"  moved  {key}: at {x['length']!r}, points up to {shift:.2g} ({what})")
    print(f"{'family':22} {'higher':>6} {'lower':>6} {'bitwise':>7} {'moved':>6}"
          f" {'before_s':>9} {'after_s':>9}")
    for family, c in counts.items():
        print(f"{family:22} {c['higher']:6} {c['lower']:6} {c['bitwise']:7}"
              f" {c['points moved']:6} {c['before_s']:9.2f} {c['after_s']:9.2f}")
    print(f"{'family':22} {'N':>6} {'before_s':>9} {'after_s':>9}")
    for (family, size), (before_s, after_s) in times.items():
        print(f"{family:22} {size:>6} {before_s:9.2f} {after_s:9.2f}")
    print("\n".join(moved))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("sweep", choices=("hint", "modes", "branches", "segments", "edge",
                                     "curved", "families", "orders"))
    p.add_argument("out", type=Path)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    p = sub.add_parser("compare")
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        run(args.sweep, args.out, args.src.resolve())
    else:
        compare(args.before, args.after)


if __name__ == "__main__":
    main()
