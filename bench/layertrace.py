"""Per-layer tracing of the transverse_index package, installed from outside.

The tracer replaces module-level functions of the package with timing
wrappers.  ``from .x import f`` copies the binding into the importing
module, so every loaded module of the package whose attribute *is* the
original function gets the wrapper, each with its own call site label
(``sweeps.solve_in_box`` and ``spectrum.solve_in_box`` are counted apart).

Cheap, rare calls (the CLI entry point, loaders, formulas, sweeps) become
spans with a parent; hot calls (up to ~1e5 per operation: the integer
enumerator and its entry points) are only aggregated into counts and times.
Every wrapped call, span or not, contributes to per-function totals:
calls, inclusive time, self time (inclusive minus wrapped children), and
for generators the number of items yielded and of calls yielding any.

A target that does not exist in the package is recorded by name in
``Tracer.missing``; metrics built from it are reported as missing, never 0.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time

PACKAGE = "transverse_index"
_clock = time.perf_counter


def _sweep_report(report):
    return {"checked": report.checked, "nonzero": len(report.nonzero)}


def _spectrum_table(table):
    return {"eigensolutions": table.total_multiplicity(), "rows": len(table.entries)}


def _setup_lines(setup):
    return {"lines": sum(len(pt.lines) for pt in setup.points)}


# (module, function, hot, observer of the return value)
TARGETS = (
    ("cli", "main", False, None),
    ("serialize", "load_setup", False, None),
    ("serialize", "save_setup", False, None),
    ("model", "validate_setup", False, None),
    ("model", "normalize_setup", False, None),
    ("engine", "transverse_index", False, None),
    ("engine", "b_signature_sum", False, None),
    ("lattice", "scaled_slope", True, None),
    ("lattice", "solve_in_box", True, None),
    ("lattice", "enumerate_kernel_solutions", True, None),
    ("lattice", "kernel_count", True, None),
    ("lattice", "restricted_count", True, None),
    ("lattice", "enumerate_nonneg_combinations", True, None),
    ("sweeps", "kernel_support", False, lambda s: {"chars": len(s)}),
    ("sweeps", "signature_support", False, lambda s: {"chars": len(s)}),
    ("sweeps", "sweep_killing", False, _sweep_report),
    ("sweeps", "sweep_de_rham_vanishing", False, _sweep_report),
    ("spectrum", "total_spectrum", False, _spectrum_table),
    ("generators", "gen_cpn", False, _setup_lines),
)


class Stat:
    """Aggregate over the calls of one function at one call site."""

    __slots__ = ("calls", "total_s", "self_s", "yielded", "hits", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.yielded = 0
        self.hits = 0
        self.extra: dict[str, int] = {}

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.yielded += other.yielded
        self.hits += other.hits
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "yielded": self.yielded,
            "hits": self.hits,
            **self.extra,
        }


class Tracer:
    """Owns the wrappers, the per-operation aggregates and the span list."""

    def __init__(self):
        self.origin = _clock()
        self.missing: list[str] = []
        self.spans: list[dict] = []
        self.stats: dict[tuple[str, str], Stat] = {}
        self._frames: list[list] = []  # [start, child_time, span_id or None]
        self._installed: list[tuple[object, str, object]] = []
        self._op: str | None = None

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for home_name, attr, hot, observe in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{home_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                self.missing.append(f"{home_name}.{attr}")
                continue
            for mod in modules:
                if vars(mod).get(attr) is original:
                    site = mod.__name__.rpartition(".")[2]
                    key = (f"{home_name}.{attr}", site)
                    setattr(mod, attr, self._wrap(original, key, hot, observe))
                    self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- operation spans -------------------------------------------------
    def begin_op(self, label: str) -> None:
        self._op = label
        self.stats = {}

    def end_op(self) -> dict[tuple[str, str], Stat]:
        stats, self.stats, self._op = self.stats, {}, None
        return stats

    def _stat(self, key) -> Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _enter(self, span_id=None) -> None:
        self._frames.append([_clock(), 0.0, span_id])

    def _exit(self, key) -> tuple[float, float]:
        end = _clock()
        start, child, _ = self._frames.pop()
        duration = end - start
        stat = self._stat(key)
        stat.total_s += duration
        stat.self_s += duration - child
        if self._frames:
            self._frames[-1][1] += duration
        return start, end

    def _parent_span(self):
        for frame in reversed(self._frames):
            if frame[2] is not None:
                return frame[2]
        return None

    def _wrap(self, fn, key, hot, observe):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                tracer._stat(key).calls += 1
                inner = fn(*args, **kwargs)
                yielded = 0
                try:
                    while True:
                        tracer._enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(key)
                        yielded += 1
                        yield item
                finally:
                    stat = tracer._stat(key)
                    stat.yielded += yielded
                    stat.hits += yielded > 0

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span_id = None
            if not hot:
                span_id = len(tracer.spans)
                tracer.spans.append(
                    {"id": span_id, "parent": tracer._parent_span(), "op": tracer._op,
                     "name": f"{key[0]}@{key[1]}"}
                )
            tracer._enter(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                start, end = tracer._exit(key)
                if span_id is not None:
                    tracer.spans[span_id]["start"] = start - tracer.origin
                    tracer.spans[span_id]["end"] = end - tracer.origin
            stat = tracer._stat(key)
            stat.calls += 1
            if observe is not None:
                for name, value in observe(result).items():
                    stat.extra[name] = stat.extra.get(name, 0) + value
            return result

        return wrapper


def merge(stat_dicts) -> dict[tuple[str, str], Stat]:
    """Sum per-operation aggregates into one (per pass, say)."""
    out: dict[tuple[str, str], Stat] = {}
    for stats in stat_dicts:
        for key, stat in stats.items():
            out.setdefault(key, Stat()).add(stat)
    return out


def by_function(stats, function: str, site: str | None = None) -> Stat:
    """Total over call sites of one function (or one site only)."""
    out = Stat()
    for (fn, at), stat in stats.items():
        if fn == function and (site is None or at == site):
            out.add(stat)
    return out
