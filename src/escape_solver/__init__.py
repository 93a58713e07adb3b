"""Shortest escape-path solver.

Turns boundary-family escape problems (a path that must meet every rotated
copy of a boundary), opaque-set line-blocking problems, and their 3D versions
into constrained polyline minimization plus visiting-order search.
"""

from .geometry import (BoundaryExpr, Circle, Line, Plane3, PointTarget, Product,
                       RigidMotion, Segment, SingularGradientError,
                       UnsupportedMotionError, apply_motion, eval_boundary,
                       grad_boundary, project, scaled_residual)
from .path import LengthReport, Polyline, grad_length, length, min_width
from .scenario import (CATALOG, Instance, ScenarioSpec, build, load_config,
                       make_scenario, symmetry_reduce)
from .nlp_solver import (NonConvergenceError, SolveOptions, Solution,
                         solve_branch_strategies, solve_fixed_order,
                         solve_self_referential)
from .order_search import (MtzModel, OrderPlan, PartitionPlan, SizeGuardError,
                           build_mtz_model, exhaustive, held_karp,
                           mtz_branch_and_bound, partition_search,
                           solve_alternating, two_opt)
from .analysis import (ConvergenceReport, WormBound, convergence_study,
                       detect_nonuniqueness, mirrored_solution, worm_upper_bound)
from .export import check_mtz_solution, parse_csv, parse_mtz_text, to_csv, \
    to_mtz_text, to_svg

__version__ = "0.1.0"
