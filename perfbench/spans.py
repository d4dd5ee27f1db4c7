"""Span tracer for the traced benchmark run.

The tracer patches public functions of each simulator layer where their
callers look them up (a module global for functions imported by name, a
class attribute for methods) and records, per span name, the number of
calls, the total time and the self time.  Self time is a span's duration
minus the part of it that child spans cover, so the self times of all
spans plus the uncovered remainder of the root add up to the root.

A function that returns a generator is timed per resumption: the call
itself is one span, and every later ``next``/``send``/``throw`` into the
generator is another span under the same name that adds time but no
call.  That is how lazily generated arrival chunks are charged to the
arrival layer instead of to whoever pulls them.

Nothing here is imported by the untraced run, so it costs that run
nothing.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter_ns
from typing import Any, Callable, Optional

_MISSING = object()


def _lane_fired(tracer: "Tracer", result: Any, _args: tuple) -> None:
    tracer.count_slab("lane", int(result[0]))


def _cold_fired(tracer: "Tracer", result: Any, _args: tuple) -> None:
    tracer.count_slab("cold", int(result[0]))


def _cold_fired_all(tracer: "Tracer", result: Any, _args: tuple) -> None:
    tracer.count_slab("cold", int(result))


def _empty_poll(tracer: "Tracer", result: Any, _args: tuple) -> None:
    if not result:
        tracer.counters["rdma.cq.poll_empty"] += 1


def _bytes_written(tracer: "Tracer", _result: Any, args: tuple) -> None:
    tracer.counters["rdma.mr.bytes_written"] += len(args[2])


def _bytes_read(tracer: "Tracer", _result: Any, args: tuple) -> None:
    tracer.counters["rdma.mr.bytes_read"] += int(args[2])


#: ``(module, attribute path, span name, observer or None)``.  The
#: observer sees the tracer, each call's result and its positional
#: arguments.
TARGETS: tuple = (
    # dispatch/admission: the fused drive loop of each scale driver
    ("repro.experiments.scale", "_ShardDriver.drive", "scale.drive", None),
    ("repro.experiments.scale", "_TenantDriver.drive", "scale.drive", None),
    # wheel
    ("repro.sim.wheel", "WheelEnvironment.schedule_batch", "wheel.schedule_batch", None),
    # lease lane
    ("repro.sim.wheel", "LeaseLane.drain", "lane.drain", _lane_fired),
    ("repro.sim.wheel", "LeaseLane.admit_block", "lane.admit_block", None),
    # cold lane
    ("repro.sim.wheel", "ColdLane.drain", "cold.drain", _cold_fired),
    ("repro.sim.wheel", "ColdLane.drain_spinups_all", "cold.drain_spinups_all", _cold_fired_all),
    # arrivals: patched in every module that calls them by name
    ("repro.experiments.scale", "arrival_times", "arrivals.arrival_times", None),
    ("repro.workloads.tenants", "arrival_times", "arrivals.arrival_times", None),
    ("repro.experiments.scale", "merge_tenant_streams", "arrivals.merge_tenant_streams", None),
    ("repro.experiments.scale", "standard_mix", "tenants.standard_mix", None),
    # statistics
    ("repro.analysis.streams", "StreamingSummary.observe_many", "streams.observe_many", None),
    ("repro.analysis.streams", "StreamingSummary.summarize", "streams.summarize", None),
    ("repro.analysis.streams", "median_ci_ranks", "stats.median_ci_ranks", None),
    # rdma
    ("repro.rdma.queue_pair", "QueuePair.post_send", "rdma.post_send", None),
    ("repro.rdma.queue_pair", "QueuePair.post_recv", "rdma.post_recv", None),
    ("repro.rdma.completion", "CompletionQueue.poll", "rdma.cq.poll", _empty_poll),
    ("repro.rdma.fabric", "Fabric.transfer_path", "rdma.fabric.transfer_path", None),
    ("repro.rdma.memory", "MemoryBlock.write", "rdma.mr.write", _bytes_written),
    ("repro.rdma.memory", "MemoryBlock.read", "rdma.mr.read", _bytes_read),
    # core
    ("repro.core.invoker", "Invoker.submit", "core.invoker.submit", None),
    # DES core (heap environment)
    ("repro.sim.core", "Environment.schedule", "sim.schedule", None),
    ("repro.sim.core", "Environment.schedule_timeout", "sim.schedule_timeout", None),
    ("repro.sim.core", "Environment.timeout", "sim.timeout", None),
)


@dataclass
class Snapshot:
    """Spans, counters and last scale environment of one traced stretch."""

    spans: dict
    counters: dict
    environment: Any


class Tracer:
    """Patches :data:`TARGETS` while installed; keeps spans in memory."""

    def __init__(self) -> None:
        #: span name -> [calls, total_ns, self_ns]
        self.spans: dict[str, list[int]] = {}
        self.counters: defaultdict[str, int] = defaultdict(int)
        #: Environments created by the scale engines since the last reset.
        self.environments: list[Any] = []
        #: Targets absent from the program (renamed or removed layers).
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._saved: list[tuple] = []
        self._paused = False

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the patches stay)."""
        self.spans.clear()
        self.counters.clear()
        self.environments.clear()

    def snapshot(self) -> "Snapshot":
        """A copy of what has been recorded since the last reset."""
        return Snapshot(
            spans={name: list(record) for name, record in self.spans.items()},
            counters=dict(self.counters),
            environment=self.environments[-1] if self.environments else None,
        )

    def span(self, name: str) -> list[int]:
        return self.spans.get(name) or [0, 0, 0]

    def count_slab(self, prefix: str, fired: int) -> None:
        if fired:
            self.counters[prefix + ".fired"] += fired
            self.counters[prefix + ".slabs"] += 1

    def _leave(self, name: str, start: int, calls: int) -> None:
        frame = self._stack.pop()
        duration = perf_counter_ns() - start
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = [0, 0, 0]
        record[0] += calls
        record[1] += duration
        record[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- wrappers ------------------------------------------------------

    def _resumptions(self, generator, name: str):
        """Re-yield *generator*, timing each resumption as a span."""
        send_value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            start = perf_counter_ns()
            self._stack.append([start, 0])
            try:
                if thrown is not None:
                    item = generator.throw(thrown)
                else:
                    item = generator.send(send_value)
            except StopIteration as stop:
                self._leave(name, start, 0)
                return stop.value
            except BaseException:
                self._leave(name, start, 0)
                raise
            self._leave(name, start, 0)
            try:
                send_value = yield item
                thrown = None
            except BaseException as exc:  # forwarded into the generator
                send_value, thrown = None, exc

    def _wrap(self, fn: Callable, name: str, observe: Optional[Callable]) -> Callable:
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            tracer._stack.append([start, 0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, start, 1)
            if observe is not None:
                observe(tracer, result, args)
            if inspect.isgenerator(result):
                return tracer._resumptions(result, name)
            return result

        return wrapper

    def _capture_environment(self, fn: Callable) -> Callable:
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            env = fn(*args, **kwargs)
            tracer.environments.append(env)
            return env

        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, module_name: str, path: str, replace: Callable) -> None:
        module = importlib.import_module(module_name)
        owner: Any = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replace(original))

    def install(self) -> "Tracer":
        for module_name, path, name, observe in TARGETS:
            self._patch(
                module_name, path, lambda fn, n=name, o=observe: self._wrap(fn, n, o)
            )
        self._patch("repro.experiments.scale", "new_environment", self._capture_environment)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
