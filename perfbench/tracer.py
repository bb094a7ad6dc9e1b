"""Span tracer for the benchmark's traced runs.

A Tracer swaps public functions of the kreversible modules for timing
wrappers, in the benchmark process only, and records one span per call:
name, start, end and the index of the enclosing span. Self time is a span's
duration minus the durations of its direct children; calls in one thread
nest, so the children never overlap.

The attribute is replaced in every kreversible module that holds the same
function object, so callers that bound the name with ``from .x import f``
are traced too. A target the program no longer has is skipped: its counts
read zero and the benchmark keeps running across refactors.

Pool workers forked while the tracer is installed restore the original
functions first thing in the child, so children run untraced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

_now = time.perf_counter


def _sweep_hook(tracer, args, result):
    tracer.counters["tables.starts_swept"] += len(result.start_bits)
    tracer.counters["tables.lockstep_state_steps"] += int(result.taus.sum()) + len(result.taus)


def _tables_hook(tracer, args, result):
    # bytes of the returned tables, computed from nbytes; not a traffic measurement
    tracer.counters["tables.table_bytes"] += sum(table.nbytes for table in result)


def _trajectory_hook(tracer, args, result):
    tracer.counters["dynamics.steps"] += len(result.trace) - 1
    if tracer.inside("extremal."):
        graph, start = args[0], args[1]
        tracer.replayed.append((graph.edges, start.bits))


def _orbit_hook(tracer, args, result):
    graph, config = args[0], args[1]
    tracer.orbit_coded.append((graph.edges, config.bits))


def _json_hook(tracer, args, result):
    tracer.counters["serialize.report_bytes"] += len(result.encode())


def _enumerate_hook(tracer, args, result):
    tracer.counters["trees.trees_enumerated"] += 1


# (module, attribute, span name, hook on the result, whether it returns an
# iterator whose items are produced lazily and timed one next() at a time)
TARGETS = (
    ("kreversible.extremal", "verify_conjecture", "extremal.verify_conjecture", None, False),
    ("kreversible.extremal", "max_transient_search", "extremal.max_transient_search", None, False),
    ("kreversible.extremal", "config_orbit_code", "extremal.config_orbit_code", _orbit_hook, False),
    ("kreversible.extremal", "_load_checkpoint", "extremal.load_checkpoint", None, False),
    ("kreversible.tables", "sweep", "tables.sweep", _sweep_hook, False),
    ("kreversible.tables", "state_tables", "tables.state_tables", _tables_hook, False),
    ("kreversible.dynamics", "run_trajectory", "dynamics.run_trajectory", _trajectory_hook, False),
    ("kreversible.trees", "canonical_code", "trees.canonical_code", None, False),
    ("kreversible.trees", "enumerate_free_trees", "trees.enumerate_free_trees", _enumerate_hook, True),
    ("kreversible.energy", "delta_energy_breakdown", "energy.delta_energy_breakdown", None, False),
    ("kreversible.energy", "bound_report", "energy.bound_report", None, False),
    ("kreversible.serialize", "canonical_json", "serialize.canonical_json", _json_hook, False),
    ("kreversible.graphs", "Graph.from_edges", "graphs.from_edges", None, False),
)


class Tracer:
    """Records spans in memory while installed; read them with profile()."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()
        os.register_at_fork(after_in_child=self.uninstall)

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.replayed: list[tuple] = []  # (edges, start bits) replayed inside extremal
        self.orbit_coded: list[tuple] = []  # (edges, config bits) given an orbit code

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _now()
        return span

    def _close(self, span: list) -> None:
        span[2] = _now()
        self._stack.pop()

    def _hook(self, hook, args, result) -> None:
        try:
            hook(self, args, result)
        except (AttributeError, TypeError, ValueError, IndexError):
            pass  # the result changed shape; the counter stays at what it has

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                self._hook(hook, args, result)
            return result

        return traced

    def _wrap_iterator(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._timed_items(name, iter(fn(*args, **kwargs)), hook, args)

        return traced

    def _timed_items(self, name, items, hook, args):
        while True:
            span = self._open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._close(span)
            if hook is not None:
                self._hook(hook, args, item)
            yield item

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, hook, lazy in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                continue
            wrap = self._wrap_iterator if lazy else self._wrap
            raw = vars(owner).get(fn_name)
            if isinstance(raw, classmethod):
                self._patches.append((owner, fn_name, raw))
                setattr(owner, fn_name, classmethod(wrap(name, raw.__func__, hook)))
                continue
            if not callable(raw):
                continue
            traced = wrap(name, raw, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.partition(".")[0] != "kreversible":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patches.append((mod, key, raw))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reading ----------------------------------------------------------

    def profile(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus the
        seconds covered by top-level spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = by_name[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[index]
            if parent < 0:
                covered += end - start
        return {"spans": dict(by_name), "covered_s": covered}
