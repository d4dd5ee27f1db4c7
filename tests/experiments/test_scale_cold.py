"""Cold-start engine bit-identity and plumbing at the experiment layer.

The acceptance contract: under ``pool_policy`` in {cold, hybrid} the
hop-virtualized batch kernel (on the wheel and on the heap) and the
per-event heap referee must produce bit-identical fingerprints --
across arrival shapes, keepalive on and off, exact completion/reclaim
ties, dense-gap saturation, and K-shard decompositions.  A closed-form
event count checks the engines against arithmetic that shares no
event semantics with the DES.  Plus the knob validation boundary, the
coldstart harness, and the bench guard's cold checks.
"""

import json
import math

import pytest

from repro.experiments.bench import check_regression
from repro.experiments.coldstart import QUICK_KWARGS, executor_seconds, run_coldstart
from repro.experiments.scale import run_scale, run_scale_sharded
from repro.sim.clock import ms, us

#: Small saturating scenario: the pool runs dry within the burst, so
#: nearly every arrival takes the cold path.
COLD = {
    "invocations": 6_000,
    "workers": 64,
    "mean_arrival_gap_ns": us(25),
    "pool_policy": "cold",
    "start_model": "remote-fork",
    "keepalive_ns": 0,
}


def _fp(**kwargs):
    return run_scale(**kwargs).fingerprint()


def _all_engines(**kwargs):
    """Per-event heap referee vs the batch kernel on the wheel and on the
    heap.  ``lease_lane`` must not matter for cold/hybrid runs, so the
    wheel runs once with each setting."""
    heap = _fp(scheduler="heap", admission="per-event", **kwargs)
    off = _fp(scheduler="wheel", admission="batch", lease_lane="off", **kwargs)
    on = _fp(scheduler="wheel", admission="batch", lease_lane="on", **kwargs)
    heap_batch = _fp(scheduler="heap", admission="batch", **kwargs)
    assert heap == off
    assert off == on
    assert heap_batch == heap
    return heap


@pytest.mark.parametrize("shape", ["poisson", "bursty", "diurnal"])
@pytest.mark.parametrize("policy", ["cold", "hybrid"])
def test_cold_identity_across_shapes_and_policies(shape, policy):
    fp = _all_engines(**{**COLD, "pool_policy": policy, "arrival_shape": shape})
    assert fp["cold_starts"] > 0


def test_cold_identity_dense_gap_saturated():
    # Arrivals every ~40 ns against a 1 ms spawn: thousands of pending
    # spin-ups, chunk admissions landing mid-backlog -- the config that
    # catches eid-tie divergence.
    fp = _all_engines(
        invocations=20_000, workers=256, mean_arrival_gap_ns=40,
        pool_policy="cold", start_model="remote-fork", keepalive_ns=0,
    )
    assert fp["cold_starts"] > 15_000


@pytest.mark.parametrize("policy", ["cold", "hybrid"])
def test_cold_identity_with_keepalive_strict_kernel(policy):
    # keepalive > 0 arms idle reclaims; a breathing pool exercises both
    # reclaim outcomes (success and retain).
    fp = _all_engines(
        invocations=8_000, workers=512, mean_arrival_gap_ns=us(2),
        arrival_shape="bursty", pool_policy=policy, hybrid_threshold=16,
        start_model="remote-fork", keepalive_ns=ms(1),
    )
    assert fp["cold_starts"] > 0
    assert fp["cold_reclaimed"] + fp["cold_retained"] > 0


def test_cold_identity_mixed_warm_and_cold():
    # Pool dips in and out of dryness: warm leases, backlog pops and
    # spin-ups interleave at the same nanoseconds.
    fp = _all_engines(
        invocations=8_000, workers=2_048, mean_arrival_gap_ns=us(1),
        arrival_shape="diurnal", pool_policy="hybrid", hybrid_threshold=16,
        start_model="bare-metal", keepalive_ns=0,
    )
    assert 0 < fp["cold_starts"] < fp["completed"]


def test_queue_policy_unchanged_by_cold_machinery():
    base = dict(COLD)
    base.pop("pool_policy")
    base.pop("start_model")
    base.pop("keepalive_ns")
    legacy = _fp(scheduler="wheel", admission="batch", lease_lane="on", **base)
    queued = _fp(
        scheduler="wheel", admission="batch", lease_lane="on",
        pool_policy="queue", **base,
    )
    assert legacy == queued
    assert queued["cold_starts"] == 0


def test_cold_gauges_populate():
    result = run_scale(
        scheduler="wheel", admission="batch", lease_lane="on", **COLD
    )
    occ = result.occupancy
    assert result.cold_starts > 0
    assert result.cold_busy_ns > 0
    # Cold runs take the batch kernel whatever lease_lane says: no lane
    # is attached, and cold starts are plain scheduler events.
    assert occ["lane_entries_peak"] == 0
    assert not any(key.startswith("cold_") for key in occ)


#: Exact-tie stress: a constant 100 ms service and a 100 ms keepalive
#: make every cold executor's completion land on the same nanosecond
#: as its idle-reclaim expiry.  Under the dispatch-time eid contract
#: the completion (eid drawn first) frees the slot before the reclaim
#: looks at it, in every engine.
TIE = {
    "invocations": 20_000,
    "workers": 64,
    "mean_arrival_gap_ns": us(25),
    "service_log_mean": math.log(1e8),
    "service_log_sigma": 0.0,
    "keepalive_ns": ms(100),
    "start_model": "remote-fork",
    "hybrid_threshold": 8,
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("policy", ["cold", "hybrid"])
def test_completion_reclaim_tie_identity(policy, seed):
    kwargs = {**TIE, "pool_policy": policy, "seed": seed}
    fps = [
        _fp(scheduler="wheel", admission="batch", **kwargs),
        _fp(scheduler="heap", admission="batch", **kwargs),
        _fp(scheduler="heap", admission="per-event", **kwargs),
        _fp(scheduler="wheel", admission="per-event", **kwargs),
    ]
    assert all(fp == fps[0] for fp in fps[1:])
    assert fps[0]["cold_starts"] > 0
    assert fps[0]["cold_reclaimed"] > 0


@pytest.mark.parametrize("keepalive_ns", [0, ms(100)])
@pytest.mark.parametrize("admission", ["batch", "per-event"])
def test_event_count_closed_form(admission, keepalive_ns):
    # With a constant service S every invocation costs one arrival plus
    # ceil(S / interval) lease events (renewal checks and the
    # completion); every cold start adds its spin-up, plus its reclaim
    # expiry when keepalive is on.  Pure arithmetic on the fingerprint's
    # own counters -- no event semantics shared with the DES.
    kwargs = {**TIE, "pool_policy": "cold", "keepalive_ns": keepalive_ns}
    result = run_scale(scheduler="wheel", admission=admission, **kwargs)
    n = TIE["invocations"]
    service = int(math.exp(TIE["service_log_mean"]))
    interval = ms(64)
    per_cold = 2 if keepalive_ns else 1
    expected = n + n * -(-service // interval) + result.cold_starts * per_cold
    assert result.events_processed == expected
    assert result.cold_starts > 0


def test_shard_decomposition_invariance_with_cold_lane():
    # Exactness regime for the mod-K partition (see the scale module
    # docstring): arrivals interact only through warm-pool slots, so
    # pick services that outlast the arrival span -- no slot refills,
    # the warm set is exactly the first W arrivals under any K, and
    # the cold set (hence cold_busy_ns) is decomposition-invariant.
    kwargs = dict(
        invocations=4_000, workers=256, mean_arrival_gap_ns=us(25),
        service_log_mean=23.0, service_log_sigma=0.3,
        pool_policy="cold", start_model="remote-fork", keepalive_ns=0,
    )
    one = run_scale_sharded(shards=1, parallel=1, **kwargs).fingerprint()
    two = run_scale_sharded(shards=2, parallel=1, **kwargs).fingerprint()
    assert one == two
    assert one["cold_starts"] == 4_000 - 256


@pytest.mark.parametrize(
    "bad",
    [
        {"pool_policy": "tepid"},
        {"start_model": "podman"},
        {"keepalive_ns": -1},
        {"pool_policy": "hybrid", "hybrid_threshold": 0},
    ],
)
def test_cold_knob_validation(bad):
    with pytest.raises(ValueError):
        run_scale(**{**COLD, "invocations": 10, **bad})


def test_run_coldstart_quick_spectrum():
    result = run_coldstart(**QUICK_KWARGS)
    assert len(result.points) == 4  # 2 pools x 2 start models x 1 shape
    assert all(p.bit_identical for p in result.points)
    # The small pool saturates; remote-fork must beat docker's tail.
    by_key = {(p.pool_size, p.start_model): p for p in result.points}
    small_fork = by_key[(64, "remote-fork")]
    small_docker = by_key[(64, "docker")]
    assert small_fork.cold_fraction > 0.5
    assert small_fork.p99_ns < small_docker.p99_ns
    assert small_fork.executor_seconds < small_docker.executor_seconds
    rendered = result.table().render()
    assert rendered.count("\n") >= 5


def test_run_coldstart_profile_refused():
    with pytest.raises(ValueError, match="--pool-policy cold --profile"):
        run_coldstart(profile=True)


def test_executor_seconds_accounting():
    # 10 workers for 1 s + 2 s of cold busy + 3 reclaimed x 0.5 s idle.
    assert executor_seconds(10, 1_000_000_000, 2_000_000_000, 3, 500_000_000) == (
        pytest.approx(10.0 + 2.0 + 1.5)
    )


# -- bench guard: the cold-start regression checks --------------------


_RATE = {"kernel_event_throughput": {"events_per_sec": 1_000_000}}


def _doc(tmp_path, entry):
    path = tmp_path / "BENCH.json"
    entry = {**_RATE, **entry}
    path.write_text(
        json.dumps({"schema": "rfaas-repro-bench-v1", "entries": {"base": entry}})
    )
    return str(path)


def test_guard_flags_cold_fraction_blowup(tmp_path):
    baseline = _doc(tmp_path, {"coldstart": {"cold_fraction": 0.10}})
    ok = {**_RATE, "coldstart": {"cold_fraction": 0.35, "bit_identical": True}}
    assert check_regression(ok, baseline, "base") == []
    bad = {**_RATE, "coldstart": {"cold_fraction": 0.41, "bit_identical": True}}
    problems = check_regression(bad, baseline, "base")
    assert any("cold_fraction" in p for p in problems)


def test_guard_skips_cold_fraction_without_baseline_key(tmp_path):
    baseline = _doc(tmp_path, {"other": {}})
    results = {**_RATE, "coldstart": {"cold_fraction": 0.99, "bit_identical": True}}
    assert check_regression(results, baseline, "base") == []


def test_guard_flags_fingerprint_divergence(tmp_path):
    baseline = _doc(tmp_path, {"coldstart": {"cold_fraction": 0.10}})
    results = {**_RATE, "coldstart": {"cold_fraction": 0.10, "bit_identical": False}}
    problems = check_regression(results, baseline, "base")
    assert any("diverged" in p for p in problems)


def test_guard_flags_reclaim_divergence(tmp_path):
    baseline = _doc(tmp_path, {"coldstart": {"cold_fraction": 0.10}})
    results = {
        **_RATE,
        "coldstart": {
            "cold_fraction": 0.10,
            "bit_identical": True,
            "reclaim": {"bit_identical": False},
        }
    }
    problems = check_regression(results, baseline, "base")
    assert any("reclaim" in p for p in problems)
