from hypothesis import settings

# one profile for every property test: a fixed example sequence and no
# per-example deadline, so a slow shared host cannot fail or vary a run
settings.register_profile("escape_solver", max_examples=120, deadline=None, derandomize=True)
settings.load_profile("escape_solver")
