"""Per-layer host-time tracing from outside the program.

:class:`LayerTrace` patches, for the duration of a ``with`` block, the
simulator's scheduling and run loop, the machine task hooks, network
endpoint registration and the public entry points of each layer, so that
every call runs inside a span.  A span is ``(name, start, end, parent)``;
spans are kept in flat in-memory arrays and written out on request.  A
layer's self time is its spans' durations minus the time their child spans
cover, accumulated online as spans close.

Event callbacks and task closures are named by the layer owning the code
(see :data:`MODULE_LAYERS`); the wrapped entry points carry fixed names.
Nothing here changes what the program computes: every wrapper calls the
original with the original arguments and returns its result.
"""

from __future__ import annotations

import json
import os
from array import array
from functools import partial
from time import perf_counter

from repro.cluster.machine import DynamicTask, Task
from repro.cluster.network import Network
from repro.cluster.simulation import Simulator, Timer
from repro.core.cleanup import CleanupExecutor
from repro.core.coordinator import GlobalCoordinator
from repro.engine.columns import ColumnBatch
from repro.engine.operators.split import Split
from repro.engine.state_store import StateStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import LatencySketch
from repro.obs.slo import EngineTracker
from repro.recovery.checkpoint import CheckpointManager
from repro.serving.arbiter import ArbitratedCoordinator
from repro.serving.gc import ClusterGC
from repro.serving.server import QueryServer
from repro.workloads.generator import TupleGenerator

#: module prefix -> layer name for event callbacks, task closures and
#: network handlers; the first matching prefix wins
MODULE_LAYERS = (
    ("repro.workloads", "workloads.generator"),
    ("repro.engine.operators.split", "engine.split"),
    ("repro.engine.columns", "engine.columns"),
    ("repro.engine.state_store", "engine.state_store"),
    ("repro.engine.partitions", "engine.state_store"),
    ("repro.engine", "engine.query_engine"),
    ("repro.cluster.simulation", "cluster.simulation"),
    ("repro.cluster.machine", "cluster.machine"),
    ("repro.cluster.network", "cluster.network"),
    ("repro.cluster", "cluster.other"),
    ("repro.core.coordinator", "core.coordinator"),
    ("repro.core.repartition", "core.coordinator"),
    ("repro.core.cleanup", "core.cleanup"),
    ("repro.core", "core.other"),
    ("repro.recovery.checkpoint", "recovery.checkpoint"),
    ("repro.recovery", "recovery.other"),
    ("repro.serving.gc", "serving.gc"),
    ("repro.serving", "serving.other"),
    ("repro.obs.slo", "obs.slo"),
    ("repro.obs.sketch", "obs.slo"),
    ("repro.obs.metrics", "obs.metrics"),
    ("repro.obs", "obs.other"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class LayerTrace:
    """Span recorder plus the patches that feed it (a context manager)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._self: list[float] = []
        self._calls: list[int] = []
        self._layer_cache: dict[object, int] = {}
        #: counters kept at the wrapped boundaries
        self.columns_rows = 0
        self.probe_rows = 0
        self.observations = 0
        self.sketch_records = 0
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._self.append(0.0)
            self._calls.append(0)
        return nid

    def span(self, nid: int, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``nid``."""
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        self.span_start.append(t0)
        self.span_end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.span_end[idx] = t1
            d = t1 - t0
            self._self[nid] += d - frame[1]
            self._calls[nid] += 1
            if stack:
                stack[-1][1] += d

    def leaf(self, nid: int, fn, *args):
        """Call ``fn(*args)`` as a leaf span that is timed and counted but
        not stored: the per-tuple calls (generator ``next``,
        ``Split.process``) would otherwise dominate both the span arrays
        and the tracing cost."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            d = perf_counter() - t0
            self._self[nid] += d
            self._calls[nid] += 1
            stack = self._stack
            if stack:
                stack[-1][1] += d

    def bookkeeping_seconds(self, rounds: int = 20000) -> float:
        """Estimated host seconds this trace spent on its own bookkeeping:
        the spans and leaf calls it made, each at the cost of an empty one
        measured now on a scratch recorder.  Wrapper code around the
        recorder (argument passing, counters) is not included."""
        scratch = LayerTrace()
        nid = scratch.name_id("empty")
        noop = int

        def per_call(call) -> float:
            t0 = perf_counter()
            for __ in range(rounds):
                call(nid, noop)
            t1 = perf_counter()
            for __ in range(rounds):
                noop()
            return max(0.0, (t1 - t0) - (perf_counter() - t1)) / rounds

        span_cost = per_call(scratch.span)
        leaf_cost = per_call(scratch.leaf)
        stored = len(self.span_start)
        return span_cost * stored + leaf_cost * (sum(self._calls) - stored)

    def self_seconds(self) -> dict[str, float]:
        return dict(zip(self.names, self._self))

    def calls(self) -> dict[str, int]:
        return dict(zip(self.names, self._calls))

    def layer_id(self, fn) -> int:
        """Span name id of the layer that owns callable ``fn``."""
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Timer):
            # every recurring timer schedules its own ``_fire``; the layer
            # is the one owning the callback the timer drives
            fn = owner._callback
        key = getattr(getattr(fn, "__func__", fn), "__code__", None) or type(fn)
        nid = self._layer_cache.get(key)
        if nid is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            nid = self._layer_cache[key] = self.name_id(layer_of_module(module))
        return nid

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        original = getattr(cls, attr)
        nid = self.name_id(name)
        span = self.span

        def wrapper(*args, **kwargs):
            return span(nid, original, *args, **kwargs)

        self._patch(cls, attr, wrapper)

    def __enter__(self) -> "LayerTrace":
        span = self.span
        leaf = self.leaf
        layer_id = self.layer_id

        schedule_at = Simulator.schedule_at

        def traced_schedule_at(sim, time, callback, *args):
            return schedule_at(sim, time, span, layer_id(callback), callback, *args)

        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._wrap_method(Simulator, "run", "cluster.simulation")

        def wrap_finish(finish):
            return None if finish is None else partial(span, layer_id(finish), finish)

        dynamic_begin = DynamicTask.begin

        def traced_dynamic_begin(task):
            service, finish = span(layer_id(task.begin_fn), dynamic_begin, task)
            return service, wrap_finish(finish)

        task_begin = Task.begin

        def traced_task_begin(task):
            if task.action is None:
                return task_begin(task)
            return span(layer_id(task.action), task_begin, task)

        self._patch(DynamicTask, "begin", traced_dynamic_begin)
        self._patch(Task, "begin", traced_task_begin)

        register = Network.register

        def traced_register(network, name, deliver):
            return register(network, name, partial(span, layer_id(deliver), deliver))

        self._patch(Network, "register", traced_register)

        arrivals = TupleGenerator.arrivals
        gen_id = self.name_id("workloads.generator")

        def traced_arrivals(generator, start=0.0):
            it = arrivals(generator, start)
            while True:
                yield leaf(gen_id, next, it)

        self._patch(TupleGenerator, "arrivals", traced_arrivals)

        process = Split.process
        split_id = self.name_id("engine.split")

        def traced_process(split, item):
            return iter(leaf(split_id, list, process(split, item)))

        self._patch(Split, "process", traced_process)

        from_routed = ColumnBatch.__dict__["from_routed"].__func__
        columns_id = self.name_id("engine.columns")
        trace = self

        def traced_from_routed(cls, routed, streams):
            trace.columns_rows += len(routed)
            return span(columns_id, from_routed, cls, routed, streams)

        self._patch(ColumnBatch, "from_routed", classmethod(traced_from_routed))

        probe = StateStore.probe_insert_columns
        probe_id = self.name_id("engine.state_store.probe")

        def traced_probe(store, cb, **kwargs):
            trace.probe_rows += len(cb)
            return span(probe_id, probe, store, cb, **kwargs)

        self._patch(StateStore, "probe_insert_columns", traced_probe)
        self._wrap_method(StateStore, "evict", "engine.state_store.evict")
        self._wrap_method(StateStore, "install", "engine.state_store.install")
        self._wrap_method(StateStore, "purge_window", "engine.state_store.purge")

        self._wrap_method(GlobalCoordinator, "evaluate", "core.coordinator")
        self._wrap_method(ArbitratedCoordinator, "evaluate", "core.coordinator")
        self._wrap_method(CleanupExecutor, "run", "core.cleanup")
        self._wrap_method(CheckpointManager, "commit", "recovery.checkpoint")
        self._wrap_method(ClusterGC, "evaluate", "serving.gc")
        self._wrap_method(QueryServer, "submit", "serving.admission")
        self._wrap_method(MetricsRegistry, "sample", "obs.metrics")

        observe = EngineTracker.observe
        slo_id = self.name_id("obs.slo")

        def traced_observe(tracker, *args, results=None, count=0, **kwargs):
            if results:
                trace.observations += len(results)
                return span(slo_id, observe, tracker, *args, results=results,
                            count=count, **kwargs)
            before = trace.sketch_records
            done = span(slo_id, observe, tracker, *args, results=results,
                        count=count, **kwargs)
            if count > 0:
                trace.observations += 1
                if trace.sketch_records == before:
                    # a counted batch outside any cause window updates its
                    # three sketches inline, without calling ``record``
                    trace.sketch_records += 3
            return done

        self._patch(EngineTracker, "observe", traced_observe)

        record = LatencySketch.record

        def counted_record(sketch, *args, **kwargs):
            trace.sketch_records += 1
            return record(sketch, *args, **kwargs)

        self._patch(LatencySketch, "record", counted_record)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as ``<path>.json`` (names and layout) plus
        ``<path>.bin``: four little-endian arrays of equal length — name id
        (int32), parent span index (int32, -1 for a root), start and end
        (float64 seconds on the host's ``perf_counter`` clock)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".bin", "wb") as handle:
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump({
                "spans": len(self.span_start),
                "columns": ["name:int32", "parent:int32",
                            "start:float64", "end:float64"],
                "names": self.names,
            }, handle, indent=1)
            handle.write("\n")
