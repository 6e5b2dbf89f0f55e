"""Per-layer spans for the traced benchmark run.

The traced run times calls *into* each layer's public entry points from
the benchmark's own files: :class:`LayerTracer` swaps each entry point
for a timing wrapper while a traced op runs and puts the original back
afterwards, so untraced ops, checks and set-up execute the unmodified
program.

Wrappers are installed where the caller resolves the name.  A function
imported by name (``from repro.core.umr import solve_umr`` in
``repro.core.rumr``) is bound in the importing module's namespace, so
every ``repro.*`` module attribute that *is* the entry point gets the
wrapper, not just the defining module's.  Methods are patched on every
loaded subclass that defines them.

Each span adds its duration to its layer's busy time and to its parent
span's child time; a layer's self time is its busy time minus the time
its child spans cover.  A call into a layer that is already open (a
subclass method calling ``super()``, a solver re-entering itself) is not
a new span.  Spans are aggregated per layer in memory, not kept
individually: a stream op opens tens of thousands of them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import typing

__all__ = ["LayerTracer", "Entry", "entry_points"]


@dataclasses.dataclass(frozen=True)
class Entry:
    """One traced entry point.

    ``owner`` is a class (patch ``attr`` on it and on every subclass that
    defines it) or ``None`` (``attr`` names the function object ``func``,
    patched wherever a ``repro.*`` module binds it).  ``rows`` maps the
    call's arguments to a work count added to ``<layer>.rows``.
    """

    layer: str
    attr: str
    owner: type | None = None
    func: typing.Any = None
    rows: typing.Callable[..., int] | None = None


def _cell_rows(cells, *args, **kwargs) -> int:
    return sum(len(cell.seeds) for cell in cells)


def entry_points() -> list[Entry]:
    """The layer boundaries the traced run measures."""
    from repro.core import multi_installment, umr
    from repro.core.base import DispatchSource, Scheduler
    from repro.errors.faults import FaultModel, StreamFaultSchedule
    from repro.experiments import cache, queueing, runner
    from repro.experiments.resilient import CheckpointStore
    from repro.platform.topology import Topology
    from repro.sim import batch, dynbatch, engine, fastsim, multijob, result

    return [
        Entry("core.umr.solve", "solve_umr", func=umr.solve_umr),
        Entry(
            "core.multi_installment.solve", "solve_multi_installment",
            func=multi_installment.solve_multi_installment,
        ),
        Entry("core.source.create", "create_source", owner=Scheduler),
        Entry("core.source.dispatch", "next_dispatch", owner=DispatchSource),
        Entry("sim.simulate", "simulate", func=result.simulate),
        Entry("sim.fastsim", "simulate_fast", func=fastsim.simulate_fast),
        Entry("sim.engine", "simulate_des", func=engine.simulate_des),
        Entry("platform.topology.bind", "bind", owner=Topology),
        Entry(
            "sim.batch.static_cells", "simulate_static_cells",
            func=batch.simulate_static_cells, rows=_cell_rows,
        ),
        Entry(
            "sim.dynbatch.dynamic_cells", "simulate_dynamic_cells",
            func=dynbatch.simulate_dynamic_cells, rows=_cell_rows,
        ),
        Entry("errors.faults.sample_batch", "sample_batch", owner=FaultModel),
        Entry("errors.faults.stream.realize", "realize", owner=StreamFaultSchedule),
        Entry("errors.faults.stream.project", "project", owner=StreamFaultSchedule),
        Entry("experiments.runner", "run_sweep", func=runner.run_sweep),
        Entry("experiments.resilient.checkpoint", "save", owner=CheckpointStore),
        Entry("experiments.cache.save", "save_sweep", func=cache.save_sweep),
        Entry("experiments.cache.load", "load_sweep", func=cache.load_sweep),
        Entry("sim.multijob", "simulate_stream", func=multijob.simulate_stream),
        Entry(
            "experiments.queueing.metrics", "queueing_metrics",
            func=queueing.queueing_metrics,
        ),
    ]


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every loaded subclass of it, each once."""
    found, todo = {}, [cls]
    while todo:
        klass = todo.pop()
        if klass not in found:
            found[klass] = None
            todo.extend(klass.__subclasses__())
    return list(found)


class LayerTracer:
    """Aggregated spans per layer over the ops it was installed for.

    ``calls``, ``busy_ns``, ``self_ns`` and ``rows`` are keyed by layer
    name.  :meth:`install` / :meth:`uninstall` bracket each traced op.
    """

    def __init__(self, entries: typing.Sequence[Entry], modules=()) -> None:
        self.entries = tuple(entries)
        #: Extra modules (the benchmark's own) whose bindings are patched
        #: alongside ``repro.*``.
        self.modules = tuple(modules)
        self.calls: dict[str, int] = {e.layer: 0 for e in self.entries}
        self.busy_ns: dict[str, int] = {e.layer: 0 for e in self.entries}
        self.self_ns: dict[str, int] = {e.layer: 0 for e in self.entries}
        self.rows: dict[str, int] = {e.layer: 0 for e in self.entries}
        #: Hits and misses of the ``lru_cache``d entry points (solvers),
        #: accumulated over the installed intervals only.
        self.memo_hits: dict[str, int] = {}
        self.memo_misses: dict[str, int] = {}
        self._memo_marks: dict[str, tuple[int, int]] = {}
        self._open: set[str] = set()
        self._stack: list[list[int]] = []
        self._patches: list[tuple[typing.Any, str, typing.Any]] = []

    def _wrap(self, entry: Entry, fn):
        layer, rows = entry.layer, entry.rows
        open_layers, stack = self._open, self._stack
        calls, busy, self_ns, row_counts = self.calls, self.busy_ns, self.self_ns, self.rows
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in open_layers:
                return fn(*args, **kwargs)
            if rows is not None:
                row_counts[layer] += rows(*args, **kwargs)
            frame = [0]
            open_layers.add(layer)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                open_layers.discard(layer)
                calls[layer] += 1
                busy[layer] += span
                self_ns[layer] += span - frame[0]
                if stack:
                    stack[-1][0] += span

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Swap every entry point for its timing wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for entry in self.entries:
            if hasattr(entry.func, "cache_info"):
                info = entry.func.cache_info()
                self._memo_marks[entry.layer] = (info.hits, info.misses)
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ] + list(self.modules)
        for entry in self.entries:
            if entry.owner is None:
                wrapper = self._wrap(entry, entry.func)
                for module in modules:
                    if module.__dict__.get(entry.attr) is entry.func:
                        self._set(module, entry.attr, wrapper)
                continue
            for klass in _subclasses(entry.owner):
                raw = klass.__dict__.get(entry.attr)
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    self._set(klass, entry.attr, type(raw)(self._wrap(entry, raw.__func__)))
                else:
                    self._set(klass, entry.attr, self._wrap(entry, raw))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for entry in self.entries:
            mark = self._memo_marks.pop(entry.layer, None)
            if mark is not None:
                info = entry.func.cache_info()
                layer = entry.layer
                self.memo_hits[layer] = self.memo_hits.get(layer, 0) + info.hits - mark[0]
                self.memo_misses[layer] = self.memo_misses.get(layer, 0) + info.misses - mark[1]
