"""The two benchmark workloads and the correctness check of each run.

Every workload calls only public entry points of the simulator:
``repro.experiments.scale.run_scale``, ``run_tenant_scale``, and
``repro.core.deployment.Deployment`` with its ``Invoker``.  Each runs in
this one process with ``shards=1`` and ``parallel=1``, so a measurement
times the simulator and not the OS scheduler.

``invoke-hot`` drives the RDMA stack; ``scale-mix`` runs the four scale
regimes (:data:`REGIMES`) one after another, so one long run covers every
scale-engine layer instead of four short runs covering one each.

A *rep* is one complete run of a workload: one fresh deployment driven
through a closed loop of invocations, or one run of every scale regime.
It returns host timings, the number of invocations attempted and failed,
and what the correctness check saw.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any

from repro.core.deployment import Deployment
from repro.core.errors import RFaaSError
from repro.experiments.scale import run_scale, run_tenant_scale
from repro.workloads.noop import noop_package

SMALL = 1 << 10
LARGE = 1 << 20
#: Payload cycle of invoke-hot: 15 of every 16 payloads are SMALL.
CYCLE = 16


@dataclass(frozen=True)
class Regime:
    """One scale run of the ``scale-mix`` workload."""

    name: str
    #: "scale" (run_scale) or "tenant" (run_tenant_scale).
    kind: str
    #: Invocations of the run at the workload's default size.
    size: int
    kwargs: dict = field(default_factory=dict)


#: Why each regime exists is recorded in BENCHMARK.json and layers.json.
REGIMES: tuple[Regime, ...] = (
    Regime("scale-burst", "scale", 100_000),
    Regime(
        "scale-backlog",
        "scale",
        20_000,
        {"workers": 4096, "mean_arrival_gap_ns": 98_000, "pool_policy": "queue"},
    ),
    Regime(
        "scale-cold",
        "scale",
        100_000,
        {
            "workers": 1 << 14,
            "pool_policy": "cold",
            "start_model": "remote-fork",
            "keepalive_ns": 0,
        },
    ),
    Regime("tenant-sparse", "tenant", 12_000, {"partitioning": "shared"}),
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: "hot" (closed loop on a deployment) or "mix" (every regime).
    kind: str
    #: Invocations per rep: the run length, fixed per workload.
    size: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("invoke-hot", "hot", 1024),
        Workload("scale-mix", "mix", sum(r.size for r in REGIMES)),
    )
}


def regime_sizes(size: int) -> list[tuple[Regime, int]]:
    """Split *size* invocations over the regimes in proportion to their
    default sizes; the default size gives every regime its own."""
    total = WORKLOADS["scale-mix"].size
    return [(r, max(1, r.size * size // total)) for r in REGIMES]


#: The per-event heap referee of the scale engines.
REFEREE = {"scheduler": "heap", "admission": "per-event", "lease_lane": "off"}


@dataclass
class Part:
    """One regime's scale run inside a ``scale-mix`` rep."""

    name: str
    size: int
    phase_s: float
    setup_s: float
    failed: int
    completed: int
    events: int
    error: str = ""
    #: Traced reps only: the run's result and what the tracer saw.
    result: Any = None
    trace: Any = None


@dataclass
class Rep:
    """One measured run of a workload."""

    #: Host seconds of the timed phase (engine drives / closed loop).
    phase_s: float
    #: Host seconds outside the timed phase.
    setup_s: float
    attempted: int
    failed: int
    completed: int
    #: invoke-hot: host ns from submit to result, one per invocation.
    latencies_ns: list = field(default_factory=list)
    #: Simulator events processed in the timed phase.
    events: int = 0
    #: scale-mix: one entry per regime, in REGIMES order.
    parts: list = field(default_factory=list)
    error: str = ""


def _engine_call(regime: Regime, seed: int, size: int, referee: bool):
    kwargs = dict(regime.kwargs)
    if regime.kind == "scale":
        if referee:
            kwargs.update(REFEREE)
        return run_scale(invocations=size, seed=seed, shards=1, parallel=1, **kwargs)
    if referee:
        kwargs.update(scheduler="heap", admission="per-event")
    return run_tenant_scale(invocations=size, seed=seed, shards=1, parallel=1, **kwargs)


def referee_part(regime: Regime, seed: int, size: int) -> dict:
    """Fingerprint and drive time of the per-event heap referee."""
    result = _engine_call(regime, seed, size, referee=True)
    return {"fingerprint": result.fingerprint(), "drive_s": result.wall_s}


def referee_run(seed: int, size: int) -> dict:
    """:func:`referee_part` of every regime, keyed by regime name."""
    return {regime.name: referee_part(regime, seed, n) for regime, n in regime_sizes(size)}


def _part(regime: Regime, seed: int, size: int, expected: dict, traced: bool) -> Part:
    """One scale run, checked against the *expected* fingerprint.

    A mismatch or a lost invocation counts every invocation of the run
    as failed.
    """
    gc.collect()
    started = perf_counter()
    try:
        result = _engine_call(regime, seed, size, referee=False)
    except RuntimeError as exc:  # the engines raise it on lost invocations
        return Part(regime.name, size, 0.0, 0.0, size, 0, 0, error=str(exc))
    outer_s = perf_counter() - started
    failed = 0 if result.fingerprint() == expected else size
    return Part(
        name=regime.name,
        size=size,
        phase_s=result.wall_s,
        setup_s=outer_s - result.wall_s,
        failed=failed,
        completed=result.completed,
        events=result.events_processed,
        error="" if not failed else "fingerprint differs from the expected one",
        result=result if traced else None,
    )


def mix_rep(seed: int, size: int, expected: dict, tracer: Any = None) -> Rep:
    """Run every regime once; *expected* maps regime name to fingerprint.

    With a *tracer*, each part keeps what the tracer saw during it.
    """
    parts = []
    for regime, n in regime_sizes(size):
        if tracer is not None:
            tracer.reset()
        part = _part(regime, seed, n, expected[regime.name], tracer is not None)
        if tracer is not None:
            part.trace = tracer.snapshot()
        parts.append(part)
    return Rep(
        phase_s=sum(p.phase_s for p in parts),
        setup_s=sum(p.setup_s for p in parts),
        attempted=sum(p.size for p in parts),
        failed=sum(p.failed for p in parts),
        completed=sum(p.completed for p in parts),
        events=sum(p.events for p in parts),
        parts=parts,
        error="; ".join(f"{p.name}: {p.error}" for p in parts if p.error),
    )


def payload_cycle(seed: int) -> list[int]:
    """The seeded size cycle: one LARGE slot among CYCLE payloads."""
    sizes = [SMALL] * CYCLE
    sizes[random.Random(seed).randrange(CYCLE)] = LARGE
    return sizes


def hot_rep(seed: int, count: int, expected_rtt_ns: dict, tracer: Any = None) -> Rep:
    """Build a deployment, lease one worker, then a closed loop of *count*
    echo invocations with one outstanding at a time.

    Every result must be ``ok``, return the payload unchanged and take the
    pinned simulated round trip for its size.  The checks run outside the
    latency samples, and their host time is taken out of the phase.
    With a *tracer*, its records are reset when the closed loop begins.
    """
    gc.collect()
    started = perf_counter()
    dep = Deployment.build(executors=1, managers=1, clients=1)
    dep.settle()
    invoker = dep.new_invoker()
    dep.run(invoker.allocate(noop_package(), workers=1))
    rng = random.Random(seed)
    buffers = {}
    for size in (SMALL, LARGE):
        tail = rng.randbytes(size - 8)
        in_buf = invoker.alloc_input(size)
        in_buf.write(tail, offset=8)
        buffers[size] = (in_buf, invoker.alloc_output(size), tail)
    sizes = payload_cycle(seed)
    setup_s = perf_counter() - started

    latencies: list[int] = []
    tally = {"failed": 0, "check_ns": 0}

    def check(result, size: int, seq: bytes, tail: bytes) -> bool:
        return (
            result.ok
            and result.output_size == size
            and result.rtt_ns == expected_rtt_ns[size]
            and result.output() == seq + tail
        )

    def closed_loop():
        for i in range(count):
            size = sizes[i % CYCLE]
            in_buf, out_buf, tail = buffers[size]
            seq = i.to_bytes(8, "little")
            in_buf.write(seq)
            sent = perf_counter_ns()
            future = invoker.submit("echo", in_buf, size, out_buf)
            try:
                result = yield future.wait()
            except RFaaSError:
                tally["failed"] += 1
                continue
            done = perf_counter_ns()
            latencies.append(done - sent)
            if tracer is None:
                ok = check(result, size, seq, tail)
            else:
                with tracer.paused():
                    ok = check(result, size, seq, tail)
            if not ok:
                tally["failed"] += 1
            tally["check_ns"] += perf_counter_ns() - done

    events_before = dep.env.events_processed
    if tracer is not None:
        tracer.reset()
    phase_started = perf_counter()
    dep.run(closed_loop())
    phase_s = perf_counter() - phase_started - tally["check_ns"] / 1e9
    return Rep(
        phase_s=phase_s,
        setup_s=setup_s,
        attempted=count,
        failed=tally["failed"],
        completed=len(latencies),
        latencies_ns=latencies,
        events=dep.env.events_processed - events_before,
    )
