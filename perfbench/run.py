"""Regime benchmark of the rFaaS simulator.

Run from the repository root::

    python3 perfbench/run.py --workload scale-mix --seed 3 --seconds 50 --trace 0

Workloads (see ``regimes.py`` for what each runs): ``invoke-hot`` and
``scale-mix``, the latter one run of each scale regime (``scale-burst``,
``scale-backlog``, ``scale-cold``, ``tenant-sparse``) per rep.

A run makes ``WARMUP_REPS`` untimed reps, then repeats its workload at a
fixed size until ``--seconds`` have passed (at least ``MIN_REPS`` times).
Throughput, set-up time and scale-mix's per-invocation host time are
medians over the timed reps; invoke-hot's latency percentiles pool the
invocations of every timed rep.  Every rep, warm-up included, is checked:
each regime's fingerprint must equal the per-event heap referee's, pinned
in ``pinned.json`` for the seeds listed there and computed by a referee
run in a child process for any other seed (or ``--size``).  An invoke-hot
rep checks every invocation's status, echoed payload and simulated round
trip.

``--trace 0`` prints the end-to-end metrics; the peak RSS is that of this
process, which runs nothing but the workload (the referee runs in a
child).  ``--trace 1`` also runs the referee, repeats the untraced reps,
then one rep with every layer's public functions wrapped in spans
(``spans.py``) and prints the per-layer metrics, its own throughput
beside the untraced throughput, and the referee regime map.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run's record (provenance, reps and the expected-data source).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
# One thread: on a host with a couple of CPUs, a BLAS thread pool would
# time the scheduler.  Set before numpy loads; the referee child inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from regimes import (  # noqa: E402
    REGIMES,
    WORKLOADS,
    Rep,
    Workload,
    hot_rep,
    mix_rep,
    referee_run,
    regime_sizes,
)

#: Untimed reps before the timed ones: first calls pay for lazy imports
#: and cold caches.
WARMUP_REPS = 1
#: Reps below which a run keeps going past ``--seconds``, so a median
#: always has company.
MIN_REPS = 3
#: A referee run that takes longer than this is a broken program.
REFEREE_TIMEOUT_S = 150

END_TO_END = {
    "invocations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "invoke_host_p50_us": "us",
    "invoke_host_p99_us": "us",
}

PER_LAYER = {
    "scale.drive_s": "s",
    "scale.drive.self_s": "s",
    "scale.events": "count",
    "scale.host_ns_per_event": "ns",
    "scale.queued": "count",
    "scale.max_backlog": "count",
    "scale.cold_starts": "count",
    "wheel.schedule_batch.calls": "count",
    "wheel.schedule_batch.self_s": "s",
    "wheel.cascades_per_event": "ratio",
    "wheel.overflow_inserts_per_event": "ratio",
    "wheel.reanchors": "count",
    "wheel.granularity_bits": "bits",
    "wheel.entries_peak": "count",
    "lane.drain.calls": "count",
    "lane.drain.self_s": "s",
    "lane.admit_block.calls": "count",
    "lane.entries_per_slab": "count",
    "lane.scalar_fires": "count",
    "lane.entries_peak": "count",
    "cold.drain.calls": "count",
    "cold.drain.self_s": "s",
    "cold.drain_spinups_all.self_s": "s",
    "cold.entries_per_slab": "count",
    "cold.scalar_fires": "count",
    "arrivals.arrival_times.self_s": "s",
    "arrivals.merge_tenant_streams.self_s": "s",
    "tenants.standard_mix.self_s": "s",
    "streams.observe_many.calls": "count",
    "streams.observe_many.self_s": "s",
    "streams.summarize.self_s": "s",
    "stats.median_ci_ranks.calls": "count",
    "stats.median_ci_ranks.self_s": "s",
    "referee.drive_s": "s",
    "engine_over_referee": "ratio",
    "rdma.post_send.calls": "count",
    "rdma.post_send.self_s": "s",
    "rdma.post_recv.calls": "count",
    "rdma.cq.poll.calls": "count",
    "rdma.cq.poll_empty_frac": "ratio",
    "rdma.fabric.transfer_path.self_s": "s",
    "rdma.mr.bytes_written": "B",
    "rdma.mr.bytes_read": "B",
    "core.invoker.submit.calls": "count",
    "core.invoker.submit.self_s": "s",
    "core.self_s": "s",
    "sim.events_per_invocation": "count",
    "sim.host_ns_per_event": "ns",
    "sim.schedule.calls": "count",
    "trace.invocations_per_s": "1/s",
    "trace.untraced_invocations_per_s": "1/s",
    "trace.overhead": "ratio",
}

#: Per-regime metrics of scale-mix's traced run, named ``<regime>.<metric>``.
REGIME_METRICS = {
    "drive_s": "s",
    "host_ns_per_event": "ns",
    "referee.drive_s": "s",
    "engine_over_referee": "ratio",
    "lane.entries_per_slab": "count",
}
PER_LAYER.update(
    {f"{r.name}.{metric}": unit for r in REGIMES for metric, unit in REGIME_METRICS.items()}
)


# -- expected data -----------------------------------------------------


def load_pins(path: Path = HERE / "pinned.json") -> dict:
    with open(path) as handle:
        return json.load(handle)


def pinned_fingerprint(pins: dict, regime: str, size: int, seed: int) -> Optional[dict]:
    return pins.get(regime, {}).get(str(size), {}).get(str(seed))


def pinned_rtts(pins: dict) -> dict[int, int]:
    return {int(size): rtt for size, rtt in pins["invoke-hot"]["rtt_ns"].items()}


def referee_child(seed: int, size: int) -> dict:
    """Run the referee of every regime in a fresh process, so its memory
    and time stay out of this one's measurements."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--referee",
            "--workload",
            "scale-mix",
            "--seed",
            str(seed),
            "--size",
            str(size),
        ],
        capture_output=True,
        text=True,
        timeout=REFEREE_TIMEOUT_S,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- provenance --------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    """sha256 over ``src/**/*.py``: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, size: int) -> dict:
    # Only a repository rooted at this checkout describes its code.
    top = _git("rev-parse", "--show-toplevel")
    sha = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    # Dirty means uncommitted changes to the program under src/.
    dirty = _git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None or dirty is None else bool(dirty),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "size": size,
    }


# -- measurement -------------------------------------------------------


def _rep(workload: Workload, seed: int, size: int, expected: Any, tracer=None) -> Rep:
    if workload.kind == "hot":
        return hot_rep(seed, size, expected, tracer)
    return mix_rep(seed, size, expected, tracer)


def repeat(
    workload: Workload, seed: int, size: int, expected: Any, seconds: float
) -> tuple[list[Rep], list[Rep]]:
    """``(warm-up reps, timed reps)``: WARMUP_REPS, then reps until
    *seconds* have passed and at least MIN_REPS ran."""
    warmup = [_rep(workload, seed, size, expected) for _ in range(WARMUP_REPS)]
    reps: list[Rep] = []
    started = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - started < seconds:
        reps.append(_rep(workload, seed, size, expected))
    return warmup, reps


def _timed(reps: list[Rep]) -> list[Rep]:
    timed = [r for r in reps if r.phase_s > 0 and r.completed]
    if not timed:
        raise SystemExit("no rep of the workload completed")
    return timed


def _throughput(reps: list[Rep]) -> float:
    """Completed invocations per host second of the timed phase, median rep."""
    return statistics.median(r.completed / r.phase_s for r in reps)


def _quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(workload: Workload, reps: list[Rep]) -> dict[str, float]:
    timed = _timed(reps)
    metrics = {
        "invocations_per_s": _throughput(timed),
        "setup_s": statistics.median(r.setup_s for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if workload.kind == "hot":
        samples = [ns for r in timed for ns in r.latencies_ns]
        metrics["invoke_host_p50_us"] = _quantile(samples, 0.50) / 1e3
        metrics["invoke_host_p99_us"] = _quantile(samples, 0.99) / 1e3
    else:
        # A batch run has no per-invocation host latency, only host time
        # per invocation of each rep.  With a dozen reps at most, no
        # percentile above the median has ten reps beyond it, so both
        # fields carry the median rep.
        per_invocation = statistics.median(1e6 * r.phase_s / r.completed for r in timed)
        metrics["invoke_host_p50_us"] = per_invocation
        metrics["invoke_host_p99_us"] = per_invocation
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _span_metrics(metrics: dict, spans: dict) -> None:
    for name in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if stem in spans and field in ("calls", "self_s"):
            calls, _total, self_ns = spans[stem]
            metrics[name] = calls if field == "calls" else self_ns / 1e9


def per_layer(
    workload: Workload,
    reps: list[Rep],
    traced: Rep,
    tracer,
    referee: Optional[dict],
) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    timed = _timed(reps)
    untraced_rate = _throughput(timed)
    traced_rate = _ratio(traced.completed, traced.phase_s)
    metrics["trace.invocations_per_s"] = traced_rate
    metrics["trace.untraced_invocations_per_s"] = untraced_rate
    metrics["trace.overhead"] = _ratio(untraced_rate, traced_rate) - 1.0
    if workload.kind == "hot":
        _hot_layers(metrics, timed, traced, tracer)
    else:
        _mix_layers(metrics, timed, traced, referee)
    return metrics


def _hot_layers(metrics: dict, timed: list[Rep], traced: Rep, tracer) -> None:
    spans = tracer.spans
    counters = tracer.counters
    _span_metrics(metrics, spans)
    polls = tracer.span("rdma.cq.poll")[0]
    metrics["rdma.cq.poll_empty_frac"] = _ratio(counters["rdma.cq.poll_empty"], polls)
    metrics["rdma.mr.bytes_written"] = counters["rdma.mr.bytes_written"]
    metrics["rdma.mr.bytes_read"] = counters["rdma.mr.bytes_read"]
    covered_ns = sum(
        record[2] for name, record in spans.items() if name.startswith(("rdma.", "sim."))
    )
    metrics["core.self_s"] = traced.phase_s - covered_ns / 1e9
    metrics["sim.events_per_invocation"] = _ratio(traced.events, traced.completed)
    metrics["sim.host_ns_per_event"] = statistics.median(
        1e9 * r.phase_s / r.events for r in timed if r.events
    )
    metrics["sim.schedule.calls"] = tracer.span("sim.schedule")[0]


def _mix_layers(
    metrics: dict, timed: list[Rep], traced: Rep, referee: Optional[dict]
) -> None:
    """Layer metrics summed over the traced rep's regimes, then the
    per-regime drive times and referee regime map."""
    spans: dict[str, list[int]] = {}
    counters: Counter = Counter()
    runs = [p for p in traced.parts if p.result is not None]  # none lost invocations
    for part in runs:
        for name, record in part.trace.spans.items():
            total = spans.setdefault(name, [0, 0, 0])
            for i, value in enumerate(record):
                total[i] += value
        counters.update(part.trace.counters)
    _span_metrics(metrics, spans)
    drive = spans.get("scale.drive", [0, 0, 0])
    metrics["scale.drive_s"] = drive[1] / 1e9
    metrics["scale.drive.self_s"] = drive[2] / 1e9
    metrics["scale.host_ns_per_event"] = statistics.median(
        1e9 * r.phase_s / r.events for r in timed if r.events
    )
    if runs:
        results = [p.result for p in runs]
        envs = [p.trace.environment for p in runs]
        occupancy = [env.occupancy() if hasattr(env, "occupancy") else {} for env in envs]

        def total(key: str) -> int:
            return sum(o.get(key, 0) for o in occupancy)

        def peak(key: str) -> int:
            return max(o.get(key, 0) for o in occupancy)

        events = sum(r.events_processed for r in results)
        metrics["scale.events"] = events
        metrics["scale.queued"] = sum(r.queued for r in results)
        metrics["scale.max_backlog"] = max(_max_backlog(r) for r in results)
        metrics["scale.cold_starts"] = sum(r.cold_starts for r in results)
        metrics["wheel.cascades_per_event"] = _ratio(total("cascades"), events)
        metrics["wheel.overflow_inserts_per_event"] = _ratio(total("overflow_inserts"), events)
        metrics["wheel.reanchors"] = total("reanchors")
        metrics["wheel.granularity_bits"] = peak("granularity_bits")
        metrics["wheel.entries_peak"] = max(r.occupancy.get("wheel", 0) for r in results)
        metrics["lane.entries_per_slab"] = _ratio(counters["lane.fired"], counters["lane.slabs"])
        metrics["lane.scalar_fires"] = total("lane_scalar_fires")
        metrics["lane.entries_peak"] = peak("lane_entries_peak")
        metrics["cold.entries_per_slab"] = _ratio(counters["cold.fired"], counters["cold.slabs"])
        metrics["cold.scalar_fires"] = total("cold_scalar_fires")

    engine_drive_s = 0.0
    for index, regime in enumerate(REGIMES):
        name = regime.name
        parts = [r.parts[index] for r in timed if r.parts[index].completed]
        drive_s = statistics.median(p.phase_s for p in parts) if parts else 0.0
        engine_drive_s += drive_s
        metrics[f"{name}.drive_s"] = drive_s
        metrics[f"{name}.host_ns_per_event"] = statistics.median(
            [1e9 * p.phase_s / p.events for p in parts if p.events] or [0.0]
        )
        part = traced.parts[index]
        if part.trace is not None:
            fired = part.trace.counters.get("lane.fired", 0)
            metrics[f"{name}.lane.entries_per_slab"] = _ratio(
                fired, part.trace.counters.get("lane.slabs", 0)
            )
        if referee is not None:
            metrics[f"{name}.referee.drive_s"] = referee[name]["drive_s"]
            metrics[f"{name}.engine_over_referee"] = _ratio(referee[name]["drive_s"], drive_s)
    if referee is not None:
        referee_s = sum(run["drive_s"] for run in referee.values())
        metrics["referee.drive_s"] = referee_s
        metrics["engine_over_referee"] = _ratio(referee_s, engine_drive_s)


def _max_backlog(result) -> int:
    tenants = getattr(result, "tenants", None)
    return max(t.max_backlog for t in tenants.values()) if tenants else result.max_backlog


def _regime_summary(timed: list[Rep]) -> dict:
    """Per-regime medians over the timed scale-mix reps, for the record."""
    summary = {}
    for index, regime in enumerate(REGIMES):
        parts = [r.parts[index] for r in timed if r.parts[index].completed]
        if parts:
            summary[regime.name] = {
                "size": parts[0].size,
                "invocations_per_s": statistics.median(p.completed / p.phase_s for p in parts),
                "drive_s": statistics.median(p.phase_s for p in parts),
                "setup_s": statistics.median(p.setup_s for p in parts),
            }
    return summary


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: Optional[int] = None,
    expected: Any = None,
) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns ``(record, result)``.

    *expected* overrides the correctness data (fingerprints keyed by
    regime for scale-mix, the per-size round trips for invoke-hot).
    """
    workload = WORKLOADS[name]
    size = size or workload.size
    pins = load_pins()
    attempted = failed = 0
    referee = None
    source = "given"
    if workload.kind == "hot":
        if expected is None:
            expected, source = pinned_rtts(pins), "pinned"
    else:
        sizes = regime_sizes(size)
        pinned = {r.name: pinned_fingerprint(pins, r.name, n, seed) for r, n in sizes}
        complete = all(pinned.values())
        if trace or (expected is None and not complete):
            referee = referee_child(seed, size)
        if expected is None:
            if complete:
                expected, source = pinned, "pinned"
            else:
                expected = {regime: run["fingerprint"] for regime, run in referee.items()}
                source = "referee"
        for regime, n in sizes:
            if referee is not None and pinned[regime.name] not in (
                None,
                referee[regime.name]["fingerprint"],
            ):
                # The referee itself disagrees with the pinned data.
                attempted += n
                failed += n

    warmup, reps = repeat(workload, seed, size, expected, seconds)
    traced = None
    if trace:
        from spans import Tracer

        with Tracer() as tracer:
            traced = _rep(workload, seed, size, expected, tracer)
        metrics = per_layer(workload, reps, traced, tracer, referee)
        units = PER_LAYER
    else:
        metrics = end_to_end(workload, reps)
        units = END_TO_END
    for rep in warmup + reps + ([traced] if traced else []):
        attempted += rep.attempted
        failed += rep.failed

    record = {
        "provenance": provenance(name, seed, size),
        "trace": trace,
        "expected": source,
        "reps": [
            {
                "warmup": i < len(warmup),
                "phase_s": r.phase_s,
                "setup_s": r.setup_s,
                "attempted": r.attempted,
                "failed": r.failed,
                "events": r.events,
                **({"error": r.error} if r.error else {}),
            }
            for i, r in enumerate(warmup + reps)
        ],
    }
    if workload.kind == "mix":
        record["regimes"] = _regime_summary(_timed(reps))
    if trace:
        record["untraced_layers"] = tracer.missing
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return record, result


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", type=int, default=None, help="invocations per rep (default: the workload's)"
    )
    parser.add_argument("--referee", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.referee:
        print(json.dumps(referee_run(args.seed, args.size or WORKLOADS["scale-mix"].size)))
        return 0
    record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
