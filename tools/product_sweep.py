"""Product-family answer sweeps: solve a fixed set of product instances, write
each answer to JSON, and compare two such files.

    python3 tools/product_sweep.py run {hint,modes,branches,segments} OUT.json [--src DIR]
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

`run` imports the solver from DIR (default: this checkout's src) with BLAS
pinned to one thread, and records per solve the length, the branches, the
points and the time.  `compare` prints, per family, how many solves end
higher, lower, bitwise equal, or equal in length with moved points, and the
time each side took; then the times per family and N; then every solve
whose length or points moved.
"""

from __future__ import annotations

import argparse
import json
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
OPEN, CLOSED = "escape_open", "escape_closed"
ASSIGNED = (("uniform", 0), ("uniform", 1), ("alternating", 0), ("alternating", 1))


def cases(sweep: str):
    """(key, family, n, m, mode, multistart, seed, assignment) per solve;
    assignment is None (free), ("uniform", j) or ("alternating", j)."""
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
    else:
        raise SystemExit(f"unknown sweep {sweep!r}")


def run(sweep: str, out: Path, src: Path):
    sys.path.insert(0, str(src))
    from escape_solver.nlp_solver import (NonConvergenceError, SolveOptions,
                                          solve_branch_strategies, solve_fixed_order)
    from escape_solver.scenario import build, make_scenario

    records = {}
    for key, name, n, m, mode, ms, seed, assignment in cases(sweep):
        inst = build(make_scenario(name, n, m, mode=mode))
        opts = SolveOptions(multistart=ms, seed=seed)
        t0 = time.perf_counter()
        try:
            if assignment is None:
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
            "points": sol.points().ravel().tolist(), "error": error}
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
        if verdict in ("higher", "lower") or x["error"] != y["error"]:
            moved.append(f"  {verdict:6} {key}: {x['length']!r} -> {y['length']!r}"
                         f" ({x['branches']} -> {y['branches']})")
        elif verdict == "points moved":
            shift = max((abs(p - q) for p, q in zip(x["points"], y["points"])), default=0.0)
            moved.append(f"  moved  {key}: at {x['length']!r}, points up to {shift:.2g}"
                         f" ({x['branches']} -> {y['branches']})")
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
    p.add_argument("sweep", choices=("hint", "modes", "branches", "segments"))
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
