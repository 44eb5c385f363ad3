"""In-process span tracing of qdicc's layer boundaries, from the outside.

The tracer replaces selected package functions with wrappers that record a
span (name, start, end, parent) per call.  Every module namespace that binds
the function is patched, so calls made through ``from .x import f`` imports
and through module attributes (``_kernels.rate_vector``) are both seen.  The
package sources stay untouched; ``uninstall`` restores the originals.

Self time of a span is its duration minus the durations of its direct
children.  Because children nest inside their parent, the self times of
one tree add up to the duration of its root.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

# (module, function) pairs wrapped in a traced run: the functions each
# module calls in the next one, plus the icc helpers analyze_point calls
# and the 4x4 solve inside the steady-state kernel.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("main", "_write_lines"),
    "config": ("load_config", "build_sweep_spec", "build_system",
               "point_baths", "record_fields"),
    "icc": ("analyze_point", "invert_forces", "icc_reduction", "xy_variables",
            "pq_ratio", "classify", "cop", "efficiency"),
    "kinetics": ("rate_constants", "generator", "evolve"),
    "steadystate": ("steady_state",),
    "transport": ("currents", "conservation_report"),
    "thermo": ("forces_macro", "mn_factors", "entropy_production_macro",
               "entropy_production_micro", "entropy_balance_transient"),
    "_kernels": ("rate_vector", "generator_matrix", "steady_rho", "solve4",
                 "cycle_legs", "currents_vector", "schnakenberg", "rk4_evolve"),
}

# spans opened by the benchmark itself rather than by a wrapped function
BENCH_SPANS = ("bench.unit", "import.qdicc")

# exception classes reported one by one; any other class still counts
# towards errors.typed or errors.untyped
ERROR_CLASSES = ("DegenerateRateError", "ValueError", "ZeroDivisionError",
                 "LogDomainError", "PreconditionError", "DegenerateNetworkError",
                 "NumericalError", "SecondLawViolationError", "IntegrationError")


def layer_name(module: str) -> str:
    """Metric prefix of a module: metric names may not start with '_'."""
    return module.lstrip("_")


def span_names() -> list[str]:
    names = list(BENCH_SPANS)
    for module, funcs in TARGETS.items():
        names.extend(f"{layer_name(module)}.{f}" for f in funcs)
    return names


def self_times(spans) -> dict[str, list]:
    """Aggregate ``[name, start, end, parent]`` spans to {name: [self_s, calls]}.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - child[i]
        entry[1] += 1
    return out


def is_typed(cls: type) -> bool:
    """True for the failures the package documents: QdiccError or ValueError."""
    from qdicc.errors import QdiccError
    return issubclass(cls, (QdiccError, ValueError))


class Tracer:
    """Records spans and error counts; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._last_exc = None
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _count_error(self, exc: BaseException) -> None:
        # an exception leaving nested spans is counted once, where it starts
        if exc is self._last_exc:
            return
        self._last_exc = exc
        self.counts[f"errors.{type(exc).__name__}"] += 1
        self.counts["errors.typed" if is_typed(type(exc)) else "errors.untyped"] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the ``with`` body, for the benchmark's own sections."""
        idx = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._count_error(exc)
            raise
        finally:
            self._close(idx)

    def wrap(self, name: str, func, count_key: str | None = None, count_arg: int = 0):
        """Wrapper of ``func`` that records a span named ``name``.

        With ``count_key``, positional argument ``count_arg`` of each call is
        added to that counter (an operation count computed from the inputs).
        """
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if count_key is not None:
                counts[count_key] += args[count_arg]
            idx = open_(name)
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                self._count_error(exc)
                raise
            finally:
                close(idx)

        return traced

    def install(self) -> None:
        """Patch every qdicc namespace that binds a target function."""
        owners = {m: importlib.import_module(f"qdicc.{m}") for m in TARGETS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qdicc" or n.startswith("qdicc."))]
        for module, funcs in TARGETS.items():
            owner = owners[module]
            for fname in funcs:
                original = getattr(owner, fname)
                name = f"{layer_name(module)}.{fname}"
                if name == "kernels.rk4_evolve":
                    wrapper = self.wrap(name, original, "kernels.rk4_evolve.steps", 3)
                else:
                    wrapper = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def drain(self) -> dict[str, list]:
        """Self times of the spans recorded so far; clears the span list."""
        if len(self._stack) != 1:
            raise RuntimeError("drain() called inside an open span")
        out = self_times(self.spans)
        self.spans.clear()
        return out
