"""Span tracing of magicnoise from outside the package.

`Tracer.install` replaces every public function of the modules in
`src/magicnoise/` with a wrapper that records a span, in every module
namespace that holds it: `thresholds.phase_one`, `thresholds.depolarize`
and `optimize.minimize_omega` are the same wrappers as
`simplex.phase_one`, `qudit.depolarize` and `optimize.minimize_omega`.
Two class entry points are wrapped as well: `Operator.__post_init__` (the
role check of every operator built) and the KD objective's `__call__`.
A span is named after the module that defines the function, so the
bisection is `optimize.bisect_threshold` wherever it is called from.
`uninstall` restores the originals; no file under `src/` is touched.

A span is (name, start, end, parent). Spans stay in memory until the run
ends, when `summary` turns them into per-name calls, total and self time.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

MODULES = (
    "qudit",
    "frames",
    "representations",
    "simplex",
    "optimize",
    "thresholds",
    "serialize",
    "cli",
)

# Wrapped besides the public functions: (module, class, attribute, span name).
METHODS = (
    ("qudit", "Operator", "__post_init__", "qudit.Operator"),
    ("optimize", "_Objective", "__call__", "optimize.objective"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        # best value of each Nelder-Mead run, grouped by the enclosing search
        self.nm_values: dict[int, list[float]] = defaultdict(list)

    # -- spans ---------------------------------------------------------

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn inside a span called name."""
        span = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[span] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "optimize.bisect_threshold":

            def wrapper(predicate, *args, **kwargs):
                def counted(p):
                    tracer.counts["thresholds.bisect_threshold.predicate_evals"] += 1
                    return predicate(p)

                return tracer.call(name, fn, counted, *args, **kwargs)

        elif name == "simplex.phase_one":

            def wrapper(*args, **kwargs):
                result = tracer.call(name, fn, *args, **kwargs)
                tracer.counts["simplex.phase_one.pivots"] += result.iterations
                return result

        elif name == "optimize.nelder_mead":

            def wrapper(*args, **kwargs):
                search = tracer._stack[-1] if tracer._stack else -1
                result = tracer.call(name, fn, *args, **kwargs)
                tracer.nm_values[search].append(result[1])
                return result

        else:

            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        package = importlib.import_module("magicnoise")
        modules = [importlib.import_module(f"magicnoise.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{obj.__name__}", obj)
        for namespace in [package] + modules:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(namespace, attr, wrappers[obj])
        for mod, cls, attr, name in METHODS:
            owner = getattr(importlib.import_module(f"magicnoise.{mod}"), cls)
            self._set(owner, attr, self._wrap(name, vars(owner)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the part covered by direct child spans)."""
        child = [0.0] * len(self.starts)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[span] - self.starts[span]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span, name in enumerate(self.names):
            duration = self.ends[span] - self.starts[span]
            row = out[name]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[span]
        return dict(out)

    def restart_useful_ratio(self) -> tuple[int, int]:
        """(Nelder-Mead runs that reached their search's best value, all
        Nelder-Mead runs). A search is one minimize_omega span."""
        runs = self.nm_values.values()
        useful = sum(sum(1 for v in values if v <= min(values)) for values in runs)
        return useful, sum(len(values) for values in runs)
