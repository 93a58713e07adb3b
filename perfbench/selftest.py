"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for a one-second budget (one pass), untraced and then
traced, from the root of the checkout, and checks that:

- the last stdout line parses as JSON with exactly the result keys;
- the metrics are exactly those BENCHMARK.json names, each with its unit;
- every operation passed, including the bitwise comparison of the second run's
  answers with the first run's;
- a deliberately perturbed length trips the answer gate, naming the operation.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    import run as bench

    # one perturbation per gated answer, each just past its tolerance
    perturb = {
        "halfplane_unit": lambda L: L + 2e-3,
        "strip_middle": lambda L: bench.STRIP_MIDDLE_REFERENCE + 2e-6,
        "opaque_circle_tangent": lambda L: 2 * math.pi + 1e-9,
        "circle_interior_nonunique": lambda L: L + 2e-2,
        "strip_wf2": lambda L: bench.STRIP_FULL_REFERENCE + 1e-9,
        "points12.mtz": lambda L: math.nextafter(L, math.inf),
        "points12.twoopt": lambda L: L - 1e-11,
    }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            try:
                res = run(w, trace)
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                problems.append(str(e))
                continue
            tag = f"{w} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
                continue
            units = {k: v.get("unit") for k, v in res["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{tag}: metrics/units {units} != {expected[trace]}")
            if not all(isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} attempted={res['attempted']} "
                                f"failed={res['failed']}")
        record = json.loads((bench.OUT / f"{w}-seed{SEED}.json").read_text(encoding="utf-8"))
        answers = record["answers"]
        if bench.answer_misses(answers):
            problems.append(f"{w}: unperturbed answers miss: {bench.answer_misses(answers)}")
        for label, bad in perturb.items():
            if label not in answers:
                continue
            perturbed = json.loads(json.dumps(answers))
            perturbed[label]["length"] = bad(answers[label]["length"])
            named = {lab for lab, _ in bench.answer_misses(perturbed)}
            if label not in named:
                problems.append(f"{w}: perturbed {label} passed the answer gate")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
