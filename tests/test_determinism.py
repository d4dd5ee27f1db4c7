"""Determinism regression: identical seeds give bit-identical results.

This is the safety net for every fast-path change (timeout pooling,
zero-copy payloads, cached fabric paths, descriptor reuse): none of
them may alter simulated-nanosecond results, event counts, or the
latency series.  Each scenario runs twice from scratch and must match
exactly -- not approximately.
"""

from repro.core.deployment import Deployment
from repro.experiments.fig8 import run_fig8
from repro.rdma.fabric import FaultModel
from repro.workloads.noop import noop_package


def _invocation_fingerprint(faults=None, invocations=20):
    """The invocation-benchmark scenario, reduced for test runtime."""
    dep = Deployment.build(executors=1, clients=1, faults=faults)
    dep.settle()
    invoker = dep.new_invoker()
    package = noop_package()
    latencies = []

    def driver():
        yield from invoker.allocate(package, workers=1)
        in_buf = invoker.alloc_input(1024)
        in_buf.write(bytes(1024))
        out_buf = invoker.alloc_output(1024)
        for _ in range(invocations):
            future = invoker.submit("echo", in_buf, 1024, out_buf)
            result = yield future.wait()
            latencies.append(result.rtt_ns)
        return len(latencies)

    dep.run(driver())
    return dep.env.events_processed, dep.env.now, tuple(latencies)


def test_invocation_scenario_bit_identical():
    first = _invocation_fingerprint()
    second = _invocation_fingerprint()
    assert first == second
    # Sanity: the fingerprint actually carries information.
    events_processed, final_now, latencies = first
    assert events_processed > 0
    assert final_now > 0
    assert len(latencies) == 20


def test_hot_invocation_event_budget():
    """A hot 1 KiB invocation costs 16 events: 8 on the verbs data path
    (per WR: nic_tx, head arrival, last byte in, nic_rx; two unsignaled
    WRITE_WITH_IMMs) and 8 in the invoker and worker."""
    short, _, _ = _invocation_fingerprint(invocations=20)
    long, _, _ = _invocation_fingerprint(invocations=120)
    assert (long - short) / 100 == 16


def test_invocation_scenario_bit_identical_with_faults():
    """Seeded fault injection must replay identically too (RNG order)."""
    first = _invocation_fingerprint(faults=FaultModel(probability=0.05, seed=123))
    second = _invocation_fingerprint(faults=FaultModel(probability=0.05, seed=123))
    assert first == second


def test_fig8_bit_identical():
    """A small Fig. 8 sweep twice: identical latency series per point."""
    kwargs = dict(sizes=(64, 4096), repetitions=5)
    first = run_fig8(**kwargs)
    second = run_fig8(**kwargs)
    assert first.sizes == second.sizes
    assert first.series == second.series
    assert first.p99 == second.p99
    # The series contain real, nonzero simulated latencies.
    assert all(
        value > 0 for points in first.series.values() for value in points.values()
    )
