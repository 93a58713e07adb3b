import os

# one BLAS thread for the whole run: with threaded OpenBLAS, L-BFGS-B's small
# BLAS calls run 10-25x slower while another process keeps a core busy.  This
# must come before numpy loads, which no plugin does ahead of this file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings

# one profile for every property test: a fixed example sequence and no
# per-example deadline, so a slow shared host cannot fail or vary a run
settings.register_profile("escape_solver", max_examples=120, deadline=None, derandomize=True)
settings.load_profile("escape_solver")
