"""Derived studies: area-to-length cover bounds, refinement ladders, and
detection of geometrically distinct optima of equal length."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .nlp_solver import SolveOptions, Solution, solve_fixed_order
from .scenario import Instance, build, make_scenario


@dataclass(frozen=True)
class WormBound:
    """Upper bound on the least area covering every unit-length curve."""

    area: float
    escape_length: float
    ratio: float
    scenario: str = ""

    def __post_init__(self):
        if self.area <= 0 or self.escape_length <= 0:
            raise ValueError("area and escape length must be positive")
        if abs(self.ratio - self.area / self.escape_length**2) > 1e-12:
            raise ValueError("ratio is not area / length^2")


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple          # (n, length, max_residual, seconds)
    monotone_ok: bool

    def lengths(self) -> tuple:
        return tuple(e[1] for e in self.entries)


def worm_upper_bound(region_area: float, solution: Solution) -> WormBound:
    """area / length^2 for a converged escape solution of a bounded region."""
    if not solution.converged:
        raise ValueError("solution did not converge")
    if solution.length <= 0:
        raise ValueError("escape length must be positive")
    return WormBound(
        area=float(region_area), escape_length=float(solution.length),
        ratio=float(region_area) / float(solution.length) ** 2,
        scenario=solution.instance_name)


def convergence_study(scenario_name: str, n_list, m: int = 1,
                      opts: SolveOptions | None = None, **params) -> ConvergenceReport:
    """Solve one catalog scenario over an orientation ladder; lengths should only grow."""
    opts = opts or SolveOptions()
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("orientation ladder must be strictly increasing")
    if any(b % a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("each ladder rung must divide the next")
    entries = []
    prev = -math.inf
    monotone = True
    for n in n_list:
        inst = build(make_scenario(scenario_name, n, m, **params))
        t0 = time.perf_counter()
        sol = solve_fixed_order(inst, inst.order_hint or range(inst.size), opts)
        entries.append((n, sol.length, sol.max_residual, time.perf_counter() - t0))
        if sol.length < prev - 1e-9:
            monotone = False
        prev = sol.length
    return ConvergenceReport(entries=tuple(entries), monotone_ok=monotone)


def detect_nonuniqueness(solutions, tol: float | None = None,
                         geom_tol: float | None = None) -> dict:
    """Group converged solutions that tie in length but differ in geometry.

    Two solutions are the same optimum when their point sets are within the
    geometric threshold in Hausdorff distance; ties in length with distinct
    geometry count as distinct optima.
    """
    sols = list(solutions)
    if len(sols) < 2:
        raise ValueError("need at least two solutions to compare")
    if any(not s.converged for s in sols):
        raise ValueError("all solutions must be converged")
    base = min(s.length for s in sols)
    tol = tol if tol is not None else 1e-3 * max(base, 1.0)
    geom_tol = geom_tol if geom_tol is not None else 10.0 * tol

    tied = [s for s in sols if abs(s.length - base) < tol]
    reps: list[Solution] = []
    for s in tied:
        if all(_hausdorff(s.points(), r.points()) > geom_tol for r in reps):
            reps.append(s)
        # solutions geometrically close to an existing representative merge into it
    return {
        "count": len(reps),
        "representatives": tuple(reps),
        "lengths": tuple(s.length for s in tied),
        "length_tol": tol,
        "geom_tol": geom_tol,
    }


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def mirrored_solution(inst: Instance, sol: Solution,
                      opts: SolveOptions | None = None) -> Solution:
    """Reflection twin for full-sweep families symmetric about the x axis.

    Reflecting the plane maps the family onto itself with the sweep reversed,
    so the twin is a cold multistart-1 re-solve of the reversed order from the
    mirrored points.  Its polish may end at another minimum: the twin of
    circle_interior_nonunique 90 open ties it, but from 30 open's multistart-2
    solution it ends 8.2e-4 higher.
    """
    flipped = sol.points().copy()
    flipped[:, 1] *= -1.0
    # reflected point j lands on the mirrored family member N-1-h
    order = tuple(inst.size - 1 - h for h in sol.order)
    return solve_fixed_order(inst, order, replace(opts or SolveOptions(), multistart=1),
                             initial_points=flipped)
