"""Adaptive granularity + batch admission: bit-identity under pressure.

PR 6's two contracts, tested against the heap baseline:

* ``granularity_bits="auto"`` may re-anchor the wheel's geometry at
  quiescent cursor boundaries, but pops must stay in exactly the heap's
  ``(when, priority, eid)`` order -- the fuzz here *forces* re-anchors
  mid-workload (regime-switching delays, a tiny adaptation window) and
  still requires bit-identical firing sequences.
* ``schedule_batch`` must be indistinguishable from per-event admission
  of the same deadline stream, on both schedulers and any geometry.

Plus the config/CLI validation boundary and the decimated occupancy
sampler's cost bound.
"""

import random
import time

import numpy as np
import pytest

from repro.core.config import RFaaSConfig
from repro.core.deployment import Deployment
from repro.experiments.common import measure_rfaas_rtts
from repro.sim.core import Environment
from repro.sim.events import BatchEvent
from repro.sim.wheel import (
    _AUTO_INITIAL_BITS,
    _SAMPLE_DECIMATION,
    MAX_GRANULARITY_BITS,
    WheelEnvironment,
    validate_granularity_bits,
)

# -- forced re-anchors vs the heap baseline ----------------------------


def _regime_delay(rng, fired_count):
    """Delays that flip regimes so no single granularity stays in band.

    Even phases draw millisecond-scale delays (cascade-heavy at the
    256 ns auto-start geometry -> *too fine*); odd phases draw
    sub-microsecond delays (huge sort-on-drain buckets after the wheel
    widened -> *too coarse*).
    """
    if (fired_count // 300) % 2 == 0:
        return rng.randrange(2_000_000, 80_000_000)
    return rng.randrange(1, 1_500)


def _run_regime_workload(env, seed, initial=64, max_events=1_800):
    """Self-extending timeout cascade consuming the RNG in firing order."""
    rng = random.Random(seed)
    serial = iter(range(10**9))
    fired = []

    def callback(event):
        fired.append((env.now, event._value))
        if len(fired) < max_events and rng.random() < 0.7:
            child = env.timeout(_regime_delay(rng, len(fired)), next(serial))
            child.callbacks.append(callback)
            if rng.random() < 0.4:
                twin = env.timeout(_regime_delay(rng, len(fired)), next(serial))
                twin.callbacks.append(callback)

    for _ in range(initial):
        timeout = env.timeout(_regime_delay(rng, 0), next(serial))
        timeout.callbacks.append(callback)
    env.run()
    return fired


@pytest.mark.parametrize("seed", range(12))
def test_adaptive_reanchors_preserve_heap_order(seed):
    heap_fired = _run_regime_workload(Environment(), seed)
    wheel = WheelEnvironment(granularity_bits="auto")
    # Tiny adaptation window: evaluate the occupancy band every 64
    # drained events instead of every 2^15, so this small workload
    # crosses several band evaluations per regime flip.
    wheel._adapt_window = 64
    wheel_fired = _run_regime_workload(wheel, seed)
    assert wheel_fired == heap_fired
    assert len(heap_fired) > 200
    assert wheel.reanchors > 0  # the adaptive path actually exercised
    assert wheel.occupancy()["reanchors"] == wheel.reanchors


def test_auto_matches_fixed_geometry_bit_for_bit():
    auto = WheelEnvironment(granularity_bits="auto")
    auto._adapt_window = 64
    fixed = WheelEnvironment(granularity_bits=16)
    assert _run_regime_workload(auto, 3) == _run_regime_workload(fixed, 3)


def _run_sparse_chain(env, seed, events=5_000):
    """One self-chaining timer with 10-100 ms gaps: far fewer events
    than one adaptation window, spread over ~275 simulated seconds."""
    rng = random.Random(seed)
    fired = []

    def callback(event):
        fired.append(env.now)
        if len(fired) < events:
            env.timeout(rng.randrange(10_000_000, 100_000_000)).callbacks.append(callback)

    env.timeout(0).callbacks.append(callback)
    env.run()
    return fired


def test_sparse_calendar_reanchors_on_probe_budget():
    # At the 256 ns start geometry each event costs ~50 window-skip
    # probes; the probe budget must trigger the band check even though
    # only 5,000 events (well under one adaptation window) ever drain.
    auto = WheelEnvironment(granularity_bits="auto")
    fired = _run_sparse_chain(auto, 5)
    assert fired == _run_sparse_chain(Environment(), 5)
    occ = auto.occupancy()
    assert occ["reanchors"] >= 1
    assert occ["granularity_bits"] > _AUTO_INITIAL_BITS
    assert occ["probes"] == auto.probes <= 16 * len(fired)


def test_dry_wheel_sizes_geometry_from_a_sparse_chunk():
    # 3,000 deadlines over ~100 s overflow the 256 ns start geometry's
    # ~1 s horizon; a dry auto wheel re-anchors to the chunk first.
    rng = random.Random(9)
    times = sorted(rng.randrange(0, 100_000_000_000) for _ in range(3_000))
    auto = WheelEnvironment(granularity_bits="auto")
    auto.schedule_batch(np.asarray(times, dtype=np.int64), lambda e: None)
    occ = auto.occupancy()
    assert occ["reanchors"] == 1 and occ["heap"] == 0 and occ["overflow_inserts"] == 0
    assert occ["granularity_bits"] > _AUTO_INITIAL_BITS
    fixed = WheelEnvironment()
    fixed.schedule_batch(np.asarray(times, dtype=np.int64), lambda e: None)
    assert fixed.occupancy()["heap"] > 0  # a fixed geometry is left alone
    assert _drain_admitted(WheelEnvironment(granularity_bits="auto"), times, True) == (
        _drain_admitted(Environment(), times, False)
    )


def test_dry_wheel_reanchor_starts_a_fresh_adaptation_window():
    # Counters gathered under the old geometry must not judge the new one.
    auto = WheelEnvironment(granularity_bits="auto")
    for k in range(100):
        auto.timeout(1_000 * (k + 1))
    auto.run()
    assert auto.reanchors == 0 and auto._adapt_probes > 0 and auto._adapt_drained > 0
    rng = random.Random(3)
    times = sorted(auto.now + rng.randrange(0, 100_000_000_000) for _ in range(1_000))
    auto.schedule_batch(np.asarray(times, dtype=np.int64), lambda e: None)
    assert auto.reanchors == 1
    assert auto._adapt_probes == auto._adapt_drained == auto._adapt_cascaded == 0


# -- batch admission == per-event admission ----------------------------


def _drain_admitted(env, times, batch):
    """Admit *times* (batch or per-event), run, return the firing record.

    Per-event admission uses the same shared-descriptor BatchEvent and
    the same eid-per-deadline order ``schedule_batch`` allocates, so
    any divergence is the vectorized classification's fault.
    """
    fired = []

    def callback(event):
        fired.append((env.now, event._value))

    if batch:
        events = env.schedule_batch(np.asarray(times, dtype=np.int64), callback)
    else:
        shared = (callback,)
        events = []
        for when in times:
            event = BatchEvent(env, shared)
            env.schedule_timeout(event, when - env.now)
            events.append(event)
    for index, event in enumerate(events):
        event._value = index
    env.run()
    return fired


def _batch_envs():
    auto = WheelEnvironment(granularity_bits="auto")
    auto._adapt_window = 64
    return {
        "heap": Environment(),
        "wheel": WheelEnvironment(),
        "tiny": WheelEnvironment(granularity_bits=4, slot_bits=5, window_bits=4),
        "auto": auto,
    }


@pytest.mark.parametrize("seed", range(8))
def test_batch_admission_identical_to_per_event(seed):
    rng = random.Random(seed)
    # Duplicates and a heavy tail: spill, both levels and overflow all
    # receive segments of the chunk on the tiny geometry.
    times = sorted(rng.randrange(1, 400_000) for _ in range(600))
    records = {}
    for name, env in _batch_envs().items():
        for batch in (True, False):
            records[(name, batch)] = _drain_admitted(env, times, batch)
    baseline = records[("heap", False)]
    assert len(baseline) == len(times)
    for key, record in records.items():
        assert record == baseline, key


def test_batch_validation_rejects_bad_streams():
    for env in (Environment(), WheelEnvironment()):
        env._now = 1_000
        with pytest.raises(ValueError, match="past"):
            env.schedule_batch(np.asarray([500, 1_500], dtype=np.int64), lambda e: None)
        with pytest.raises(ValueError, match="non-decreasing"):
            env.schedule_batch(
                np.asarray([2_000, 1_500], dtype=np.int64), lambda e: None
            )
        assert env.schedule_batch(np.asarray([], dtype=np.int64), lambda e: None) == []


# -- occupancy sampling: decimation and cost bound ---------------------


def test_sample_occupancy_is_decimated():
    env = WheelEnvironment()
    calls = _SAMPLE_DECIMATION * 50
    computed = [env.sample_occupancy() for _ in range(calls)]
    published = [s for s in computed if s is not None]
    assert len(published) == calls // _SAMPLE_DECIMATION
    assert env.occupancy_samples == len(published)
    # force=True bypasses the gate without disturbing its phase.
    assert env.sample_occupancy(force=True) is not None
    assert "granularity_bits" in published[0]
    assert published[0]["reanchors"] == 0


def test_sample_occupancy_overhead_bound():
    """Gated samples must cost a small fraction of event processing.

    The scale drivers sample once per completed event; the decimation
    gate makes that affordable.  Here the *per-call* gated cost is
    required to stay under half the per-event run-loop cost on the
    same box -- combined with the 1-in-64 decimation the observability
    tax on events/sec is well below 1%.
    """
    env = WheelEnvironment()
    n = 100_000
    env.schedule_batch(
        np.arange(1, n + 1, dtype=np.int64) * 257, lambda event: None
    )
    t0 = time.perf_counter()
    env.run()
    run_wall = time.perf_counter() - t0
    sample = env.sample_occupancy
    t0 = time.perf_counter()
    for _ in range(n):
        sample()
    sample_wall = time.perf_counter() - t0
    assert sample_wall < max(run_wall, 0.005) * 0.5


# -- the config/CLI validation boundary --------------------------------


@pytest.mark.parametrize("bad", [0, -3, MAX_GRANULARITY_BITS + 1, 2.5, True, "fast"])
def test_validate_granularity_bits_rejects(bad):
    with pytest.raises(ValueError):
        validate_granularity_bits(bad)


@pytest.mark.parametrize("good", ["auto", 1, _AUTO_INITIAL_BITS, MAX_GRANULARITY_BITS])
def test_validate_granularity_bits_accepts(good):
    assert validate_granularity_bits(good) == good


# -- full-stack: RFaaSConfig.granularity_bits through Deployment -------


def test_deployment_builds_requested_geometry():
    fixed = Deployment.build(
        executors=1, clients=1,
        config=RFaaSConfig(scheduler="wheel", granularity_bits=16),
    )
    assert fixed.env._gbits == 16 and not fixed.env._adaptive
    auto = Deployment.build(
        executors=1, clients=1,
        config=RFaaSConfig(scheduler="wheel", granularity_bits="auto"),
    )
    assert auto.env._adaptive
    # Under the heap scheduler the knob is ignored, not an error.
    heap = Deployment.build(
        executors=1, clients=1,
        config=RFaaSConfig(scheduler="heap", granularity_bits=16),
    )
    assert isinstance(heap.env, Environment)
    assert not isinstance(heap.env, WheelEnvironment)
    with pytest.raises(ValueError):
        Deployment.build(config=RFaaSConfig(scheduler="wheel", granularity_bits=0))


def test_rfaas_measurement_identical_across_granularities():
    runs = {
        name: measure_rfaas_rtts(128, mode="hot", repetitions=4, config=config)
        for name, config in {
            "heap": RFaaSConfig(scheduler="heap"),
            "auto": RFaaSConfig(scheduler="wheel", granularity_bits="auto"),
            "fixed": RFaaSConfig(scheduler="wheel", granularity_bits=16),
        }.items()
    }
    assert runs["heap"].stats == runs["auto"].stats == runs["fixed"].stats
