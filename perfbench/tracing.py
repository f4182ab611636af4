"""Per-module timing by wrapping the program's public functions from the
outside.

A function imported by name into other modules is replaced in every module
of the package that holds it, so ``checks`` calling ``simulate_curves`` and
``cli`` calling ``run_experiment`` are both seen.  The entries of
``checks.REGISTRY`` are wrapped one by one, which gives per-check times.
Self time is a span's duration minus the time of the wrapped spans it
caused.  ``wrapper_cost_s`` measures what one wrapped call adds.
"""

import functools
import sys
import time

# (module, function, unit of work, counter).  The counter turns (args,
# kwargs, result) into the amount of work the call did.
TARGETS = (
    ("cli", "main", None, None),
    ("harness", "resolve_task", None, None),
    ("harness", "run_experiment", "records", lambda a, k, r: len(r)),
    ("harness", "simulate_curves", "row_steps",
     lambda a, k, r: len(a[3]) * (a[4] if len(a) > 4 else k["steps"])),
    ("harness", "emit", "rows", lambda a, k, r: len(a[0])),
    ("harness", "aggregate_all", "rows", lambda a, k, r: len(r)),
    ("harness", "load_records", "rows", lambda a, k, r: len(r)),
    ("harness", "load_aggregates", "rows", lambda a, k, r: len(r)),
    ("harness", "select_best", None, None),
    ("harness", "aggregate", None, None),
    ("mrp", "exact_solution", None, None),
    ("mrp", "stationary_distribution", None, None),
    ("mrp", "sample_transition", None, None),
    ("emphasis", "emphasis_abs_expected_td", None, None),
    ("emphasis", "emphasis_from_counts", None, None),
    ("analysis", "compute_A_b", None, None),
    ("analysis", "fixed_point", None, None),
    ("analysis", "contraction_condition", None, None),
    ("analysis", "dtd_operator", None, None),
    ("analysis", "dtd_operator_matrix", None, None),
    ("analysis", "projection", None, None),
    ("learners", "run_episode", None, None),
    ("returns", "simulate_trajectory", None, None),
    ("returns", "dae", None, None),
    ("returns", "discerning_return_interp", None, None),
    ("returns", "discerning_return_tdsum", None, None),
    ("checks", "monte_carlo_A_b", None, None),
    ("checks", "empirical_visit_frequencies", None, None),
)


def check_name(fn) -> str:
    """The name ``verify_all`` reports for a registered check."""
    return fn.__name__.removeprefix("check_").replace("_", "-")


class Tracer:
    """Calls, total and child seconds, and work of each wrapped function;
    ``first_call`` keeps the arguments of each function's first call."""

    def __init__(self):
        self.stats = {}
        self.first_call = {}
        self._open = []        # child seconds of each open span

    def wrap(self, fn, name, unit=None, work=None):
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0,
                                            "child_s": 0.0, "unit": unit,
                                            "work": 0})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.first_call.setdefault(name, (fn, args, kwargs))
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stat["calls"] += 1
                stat["s"] += took
                stat["child_s"] += self._open.pop()
                if self._open:
                    self._open[-1] += took
            if work is not None:
                stat["work"] += work(args, kwargs, result)
            return result
        return traced

    def install(self, package: str):
        """Wrap every target; returns a function that undoes it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        undo = []
        for mod_name, fn_name, unit, work in TARGETS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(original, f"{mod_name}.{fn_name}", unit, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        checks = sys.modules[f"{package}.checks"]
        registry = checks.REGISTRY
        checks.REGISTRY = tuple(self.wrap(fn, f"checks.{check_name(fn)}")
                                for fn in registry)
        undo.append((checks, "REGISTRY", registry))

        def uninstall():
            for module, attr, value in reversed(undo):
                setattr(module, attr, value)
        return uninstall


def wrapper_cost_s(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: the best of ``repeats`` loops of
    ``calls`` wrapped no-op calls, less the best bare loop."""
    def noop():
        return None

    def best_loop(fn):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    wrapped = Tracer().wrap(noop, "noop")
    return (best_loop(wrapped) - best_loop(noop)) / calls
