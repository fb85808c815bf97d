"""Outside-in tracing of one in-process CLI invocation.

:class:`Tracer` wraps public functions of the ``repro`` package at every
binding they have — each module attribute and the defining class attribute
— runs the invocation, then puts every original object back.  Nothing in
``src/`` is modified or aware of the tracer.

Two kinds of records are kept in memory and written out as JSONL at the end:

* **Spans** at coarse layer boundaries (experiment driver, sweep, executor,
  batch engine, framework construction and episode, lookup-table build,
  ledger reads and writes, rendering).  Each span has a parent — the span
  open on the same thread when it started — so a layer's *self time* is its
  duration minus its children's, and the root's self time is the
  *unattributed* remainder.
* **Counters** (calls and inclusive time) for functions called per frame:
  every ``@kernel_contract`` kernel (found through its
  ``__kernel_contract__`` attribute), ``RangeScanner.scan``,
  ``OffloadPlanner.sample`` and work-unit hashing.

The remote layer's public surface (``submit``/``shutdown``) cannot separate
a worker's round trip from queueing behind other episodes, and the pool
starts lazily inside the first submission, so the tracer also times the
dispatcher's transport ``send``/``recv`` pair and its ``_ensure_workers``
start-up coroutine.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Batch-engine phases reported through ``run_batch(timings=...)``; their
#: sum plus ``batch.unattributed_s`` is ``batch.wall_s``.  (``scan`` is the
#: sum of the three ``scan_*`` sub-phases and is not counted again.)
BATCH_PHASES = ("decision", "scheduler", "scan_raycast", "scan_group", "scan_view", "dynamics")

#: Roundtrip percentiles considered for the tail figure: the highest one
#: with at least ten samples beyond it is reported.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

_CLOCK = time.perf_counter_ns


@dataclass
class Span:
    """One timed call at a layer boundary."""

    id: int
    parent: int | None
    name: str
    thread: str
    start_ns: int
    end_ns: int = 0

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def repro_modules() -> list[Any]:
    """Every loaded module of the ``repro`` package."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def import_package() -> None:
    """Import every ``repro`` module except the linter and entry points.

    Bindings are patched by identity, so a module imported after patching
    would capture a wrapper and keep it after restore; importing everything
    first rules that out (the sweep imports its batch and remote backends
    lazily).
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith("repro.lint") and not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def repro_classes() -> list[type]:
    """Every class defined in a loaded ``repro`` module."""
    classes: dict[int, type] = {}
    for module in repro_modules():
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__.startswith("repro"):
                classes[id(value)] = value
    return list(classes.values())


def kernel_functions() -> tuple[list[Callable], list[tuple[type, str, Callable]]]:
    """Module-level kernels and ``(class, attribute, function)`` kernel methods."""
    functions: dict[int, Callable] = {}
    methods: list[tuple[type, str, Callable]] = []
    for module in repro_modules():
        for value in vars(module).values():
            if not inspect.isclass(value) and hasattr(value, "__kernel_contract__"):
                functions[id(value)] = value
    for cls in repro_classes():
        for attr, raw in vars(cls).items():
            fn = _unwrap_descriptor(raw)
            if hasattr(fn, "__kernel_contract__"):
                methods.append((cls, attr, fn))
    return list(functions.values()), methods


def kernel_name(fn: Callable) -> str:
    """Counter name of a kernel: its declared contract name (qualname)."""
    return fn.__kernel_contract__.name  # type: ignore[attr-defined]


def _unwrap_descriptor(raw: Any) -> Any:
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


def bindings_snapshot() -> dict[tuple[int, str], int]:
    """Identity of every callable attribute of every ``repro`` module and class.

    Compared before and after a traced run to prove that every wrapper was
    removed again.  (Data attributes are left out: module counters such as
    the sweep's pool-construction count legitimately change during a run.)
    """
    snapshot = {}
    for owner in [*repro_modules(), *repro_classes()]:
        for attr, value in list(vars(owner).items()):
            if callable(value) or isinstance(value, (staticmethod, classmethod)):
                snapshot[(id(owner), attr)] = id(value)
    return snapshot


class Tracer:
    """Wrap, record and restore.  Use :meth:`installed` around the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, list[int]] = {}
        self.runners: list[Any] = []
        self.units_declared = 0
        self.unit_keys: set[str] = set()
        self.batch_timings: dict[str, float] = defaultdict(float)
        self.batch_frames = 0
        self.batch_lanes = 0
        self.ledger_gets = 0
        self.ledger_hits = 0
        self.ledger_bytes = 0
        self.pool_start_s: dict[int, float] = {}
        self.roundtrips_s: list[float] = []
        self._sent_ns: dict[int, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._paused = False

    # ------------------------------------------------------------------
    # Recording primitives
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span whose parent is the innermost open span of this thread."""
        stack = self._stack()
        record = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            thread=threading.current_thread().name,
            start_ns=_CLOCK(),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end_ns = _CLOCK()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run harness bookkeeping without recording it."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counter_wrapper(self, name: str, fn: Callable) -> Callable:
        counter = self.counters.setdefault(name, [0, 0])
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._paused:
                return fn(*args, **kwargs)
            start = _CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _CLOCK() - start
                with lock:
                    counter[0] += 1
                    counter[1] += elapsed

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` at every module binding it has."""
        for module in repro_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_method(
        self, cls: type, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace a method on its defining class (subclasses inherit it)."""
        raw = vars(cls)[attr]
        wrapped = make(_unwrap_descriptor(raw))
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        elif isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _span_method(self, cls: type, attr: str, name: str) -> None:
        self._patch_method(cls, attr, lambda fn: self._span_wrapper(name, fn))

    def _counter_method(self, cls: type, attr: str, name: str) -> None:
        self._patch_method(cls, attr, lambda fn: self._counter_wrapper(name, fn))

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the package for the duration of the block, then restore."""
        import_package()
        try:
            self._install()
            yield self
        finally:
            self.restore()

    def _install(self) -> None:
        from repro.analysis import metrics, tables
        from repro.comm.offload import OffloadPlanner
        from repro.core.framework import SEOFramework
        from repro.core.lookup import DeadlineLookupTable
        from repro.runtime import batch, cache, executor, ledger, remote, sweep, workunit
        from repro.sim.observation import RangeScanner

        functions, methods = kernel_functions()
        for fn in functions:
            self._patch_function(fn, self._counter_wrapper(f"kernel.{kernel_name(fn)}", fn))
        for cls, attr, fn in methods:
            self._counter_method(cls, attr, f"kernel.{kernel_name(fn)}")

        self._counter_method(RangeScanner, "scan", "sim.scan")
        self._counter_method(OffloadPlanner, "sample", "comm.offload_sample")
        self._counter_method(workunit.WorkUnit, "canonical", "workunit.key")

        self._span_method(SEOFramework, "__init__", "framework.init")
        self._span_method(SEOFramework, "run_episode", "framework.episode")
        self._span_method(executor.SerialExecutor, "run_range", "executor.serial")
        self._span_method(batch.BatchExecutor, "run_range", "executor.batch")
        self._span_method(cache.LookupTableCache, "get_or_build", "cache.get_or_build")
        self._span_method(DeadlineLookupTable, "build", "cache.build")
        self._span_method(remote.AsyncWorkerPool, "__init__", "remote.pool_init")
        self._span_method(remote._WorkerDispatcher, "shutdown", "remote.shutdown")
        self._counter_method(remote._WorkerDispatcher, "submit", "remote.submit")

        self._patch_function(metrics.aggregate_reports, self._span_wrapper(
            "experiments.aggregate", metrics.aggregate_reports))
        self._patch_function(tables.format_table, self._span_wrapper(
            "experiments.render", tables.format_table))
        for module in repro_modules():
            if not module.__name__.startswith("repro.experiments."):
                continue
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and attr.startswith("run_")
                    and value.__module__ == module.__name__
                    and module.__name__ != "repro.experiments.common"
                ):
                    self._patch_function(
                        value, self._span_wrapper("experiments.driver", value)
                    )
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    if "to_table" in vars(value):
                        self._span_method(value, "to_table", "experiments.render")

        self._patch_method(sweep.SweepRunner, "__init__", self._runner_init)
        self._patch_method(sweep.SweepRunner, "run", self._runner_run)
        self._patch_function(batch.run_batch, self._run_batch(batch.run_batch))
        self._patch_method(ledger.RunLedger, "get", self._ledger_get)
        self._patch_method(ledger.RunLedger, "put", self._ledger_put)
        self._patch_method(remote._WorkerDispatcher, "_ensure_workers", self._pool_start)
        self._patch_method(remote._StreamTransport, "send", self._transport_send)
        self._patch_method(remote._StreamTransport, "recv", self._transport_recv)

    # ------------------------------------------------------------------
    # Layer-specific wrappers
    # ------------------------------------------------------------------
    def _runner_init(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(runner: Any, *args: Any, **kwargs: Any) -> None:
            fn(runner, *args, **kwargs)
            self.runners.append(runner)

        return wrapper

    def _runner_run(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(runner: Any, jobs: Any, *args: Any, **kwargs: Any) -> Any:
            with self.span("sweep.run"):
                result = fn(runner, jobs, *args, **kwargs)
            with self.paused():
                self.units_declared += len(jobs)
                self.unit_keys.update(job.key for job in jobs)
            return result

        return wrapper

    def _run_batch(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(framework: Any, episodes: Any, timings: Any = None) -> Any:
            phases: dict[str, float] = {}
            with self.span("batch.run_batch"):
                reports = fn(framework, episodes, timings=phases)
            for key, value in phases.items():
                self.batch_timings[key] += value
                if timings is not None:
                    timings[key] = timings.get(key, 0.0) + value
            if reports:
                self.batch_frames += sum(report.steps for report in reports)
                self.batch_lanes += len(reports) * max(report.steps for report in reports)
            return reports

        return wrapper

    def _ledger_get(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(ledger: Any, unit: Any) -> Any:
            with self.span("ledger.get"):
                reports = fn(ledger, unit)
            self.ledger_gets += 1
            self.ledger_hits += reports is not None
            return reports

        return wrapper

    def _ledger_put(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(ledger: Any, unit: Any, *args: Any, **kwargs: Any) -> Any:
            with self.paused():
                recorded = unit.key in ledger
            with self.span("ledger.put"):
                result = fn(ledger, unit, *args, **kwargs)
            if not recorded:
                with self.paused():
                    self.ledger_bytes += ledger.blob_path(unit.key).stat().st_size
            return result

        return wrapper

    def _pool_start(self, fn: Callable) -> Callable:
        # Every episode coroutine awaits _ensure_workers; the first starts
        # the workers while the rest wait on its lock, so the longest call
        # per dispatcher is the start-up time.
        @functools.wraps(fn)
        async def wrapper(dispatcher: Any) -> None:
            start = _CLOCK()
            try:
                await fn(dispatcher)
            finally:
                elapsed = (_CLOCK() - start) / 1e9
                key = id(dispatcher)
                self.pool_start_s[key] = max(self.pool_start_s.get(key, 0.0), elapsed)

        return wrapper

    def _transport_send(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(transport: Any, payload: dict) -> None:
            await fn(transport, payload)
            if payload.get("op") == "run":
                self._sent_ns[id(transport)] = _CLOCK()

        return wrapper

    def _transport_recv(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(transport: Any) -> dict:
            reply = await fn(transport)
            sent = self._sent_ns.pop(id(transport), None)
            if sent is not None:
                self.roundtrips_s.append((_CLOCK() - sent) / 1e9)
            return reply

        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Self time of every span: its duration minus its children's."""
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration_s
        return {span.id: span.duration_s - children[span.id] for span in self.spans}

    def total(self, name: str) -> float:
        """Total duration of ``name`` spans not nested in another ``name`` span."""
        by_id = {span.id: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = by_id.get(span.parent) if span.parent is not None else None
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent) if parent.parent is not None else None
            if parent is None:
                total += span.duration_s
        return total

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def counter(self, name: str) -> tuple[int, float]:
        calls, ns = self.counters.get(name, (0, 0))
        return calls, ns / 1e9

    def write_jsonl(self, path: Path, summary: dict) -> None:
        """Write spans, counters and the metric summary, one JSON per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self_s = self.self_times()
        origin = min((span.start_ns for span in self.spans), default=0)
        with path.open("w") as stream:
            for span in sorted(self.spans, key=lambda span: span.start_ns):
                stream.write(json.dumps({
                    "type": "span",
                    "id": span.id,
                    "parent": span.parent,
                    "name": span.name,
                    "thread": span.thread,
                    "start_s": (span.start_ns - origin) / 1e9,
                    "duration_s": span.duration_s,
                    "self_s": self_s[span.id],
                }) + "\n")
            for name in sorted(self.counters):
                calls, seconds = self.counter(name)
                stream.write(json.dumps(
                    {"type": "counter", "name": name, "calls": calls, "s": seconds}
                ) + "\n")
            stream.write(json.dumps({"type": "roundtrips_s", "values": self.roundtrips_s}) + "\n")
            stream.write(json.dumps({"type": "summary", "metrics": summary}) + "\n")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> float | None:
    """Highest percentile in :data:`TAIL_PERCENTILES` with ≥10 samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None
