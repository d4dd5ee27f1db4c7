"""Lease-lane bit-identity and plumbing at the experiment layer.

The acceptance contract: ``lease_lane="on"`` must produce fingerprints
bit-identical to ``lease_lane="off"`` (the PR 6 batch kernel) and to
the per-event heap referee -- across all three arrival shapes, under
adaptive re-anchors, saturated and unsaturated, and across K-shard
decompositions.  The lane serves only shards that cannot queue
(invocations <= slots); saturated shards take the batch kernel under
either flag value, which the routing tests pin.  Plus the CLI/config
validation boundary, the ``--profile`` path, and the bench guard's lane
gauge.
"""

import json

import pytest

from repro.experiments.bench import check_regression
from repro.experiments.scale import (
    QUICK_KWARGS,
    ScaleConfig,
    _ShardDriver,
    run_scale,
    run_scale_sharded,
)
from repro.sim.clock import us
from repro.sim.wheel import WheelEnvironment

#: Saturating: the shard can queue, so lease_lane="on" routes it to
#: the hop-virtualized batch kernel (the lane is never attached).
SATURATED = {"invocations": 6_000, "workers": 1_024, "mean_arrival_gap_ns": us(25)}
#: Unsaturated (invocations <= slots): the lane's deferred/vectorized
#: regime, the only one it serves.
UNSATURATED = {"invocations": 3_000, "workers": 4_096, "mean_arrival_gap_ns": us(25)}


def _fp(**kwargs):
    return run_scale(**kwargs).fingerprint()


@pytest.mark.parametrize("shape", ["poisson", "bursty", "diurnal"])
@pytest.mark.parametrize("load", [SATURATED, UNSATURATED], ids=["saturated", "unsaturated"])
def test_lane_identity_across_shapes(shape, load):
    kwargs = dict(load, arrival_shape=shape, granularity_bits="auto")
    heap = _fp(scheduler="heap", admission="per-event", **kwargs)
    off = _fp(scheduler="wheel", admission="batch", lease_lane="off", **kwargs)
    on = _fp(scheduler="wheel", admission="batch", lease_lane="on", **kwargs)
    assert heap == off
    assert off == on


def test_lane_serves_only_shards_that_cannot_queue():
    # 10^4 invocations on 2,048 slots queue: lease_lane="on" must route
    # the shard to the batch kernel and still match the heap referee.
    routed = run_scale(lease_lane="on", **QUICK_KWARGS)
    assert routed.queued > 0
    assert routed.occupancy["lane_entries_peak"] == 0
    heap = _fp(scheduler="heap", admission="per-event", **QUICK_KWARGS)
    assert routed.fingerprint() == heap
    # invocations <= slots: the lane is attached.
    unsat = run_scale(lease_lane="on", **UNSATURATED)
    assert unsat.occupancy["lane_entries_peak"] > 0


def test_lane_kernel_rejects_shards_that_can_queue():
    driver = _ShardDriver(
        WheelEnvironment(granularity_bits="auto"),
        ScaleConfig(admission="batch", **SATURATED),
        shard=0,
        shards=1,
    )
    with pytest.raises(ValueError, match="count <= free slots"):
        driver._install_lane_kernel()


def test_lane_identity_under_forced_reanchors():
    # A fixed coarse geometry vs auto: the lane must not care which
    # geometry the wheel re-anchors through.
    kwargs = dict(UNSATURATED, arrival_shape="bursty")
    fixed = _fp(
        scheduler="wheel", admission="batch", lease_lane="on",
        granularity_bits=24, **kwargs,
    )
    auto = _fp(
        scheduler="wheel", admission="batch", lease_lane="on",
        granularity_bits="auto", **kwargs,
    )
    assert fixed == auto


def test_lane_gauges_populate():
    result = run_scale(
        scheduler="wheel", admission="batch", lease_lane="on", **UNSATURATED
    )
    occ = result.occupancy
    assert occ["lane_entries_peak"] > 0
    assert occ["lane_slabs"] > 0
    assert occ["lane_max_slab"] >= 1
    off = run_scale(
        scheduler="wheel", admission="batch", lease_lane="off", **UNSATURATED
    )
    # Lane-off runs still report the gauges (all zero), keeping the
    # occupancy key set stable for the bench trajectory.
    assert off.occupancy["lane_entries_peak"] == 0
    assert off.occupancy["lane_slabs"] == 0


def test_shard_invariance_with_lane():
    kwargs = dict(UNSATURATED, lease_lane="on")
    one = run_scale_sharded(shards=1, parallel=1, **kwargs)
    two = run_scale_sharded(shards=2, parallel=1, **kwargs)
    fp1, fp2 = one.fingerprint(), two.fingerprint()
    assert fp1.keys() == fp2.keys()
    for key in fp1:
        if key == "latency_mean_ns":
            assert abs(fp1[key] - fp2[key]) <= 1e-9 * max(abs(fp1[key]), 1.0)
        else:
            assert fp1[key] == fp2[key], key


def test_shard_k1_matches_single_driver_with_lane():
    single = run_scale(
        scheduler="wheel", admission="batch", lease_lane="on", **UNSATURATED
    )
    sharded = run_scale_sharded(shards=1, parallel=1, lease_lane="on", **UNSATURATED)
    assert single.fingerprint() == sharded.fingerprint()


def test_lease_lane_validation():
    with pytest.raises(ValueError, match="lease_lane"):
        run_scale(scheduler="wheel", lease_lane="maybe", **UNSATURATED)
    with pytest.raises(ValueError, match="lease_lane"):
        run_scale_sharded(shards=2, lease_lane="bogus", **UNSATURATED)


def test_profile_prints_report(capsys):
    run_scale(
        scheduler="wheel", admission="batch", lease_lane="on",
        profile=True, **UNSATURATED,
    )
    out = capsys.readouterr().out
    assert "cumulative" in out and "drive" in out


def test_profile_archives_to_path(tmp_path):
    dest = tmp_path / "scale.pstats"
    run_scale(
        scheduler="wheel", admission="batch", lease_lane="on",
        profile=str(dest), **UNSATURATED,
    )
    assert dest.exists() and dest.stat().st_size > 0
    assert (tmp_path / "scale.pstats.txt").exists()


def test_profile_rejected_on_sharded_path():
    with pytest.raises(ValueError, match="single-shard"):
        run_scale(
            scheduler="wheel", admission="batch", profile=True,
            shards=2, **UNSATURATED,
        )


# -- bench guard: lane re-arm explosion --------------------------------


def _doc(tmp_path, scale_entry):
    path = tmp_path / "BENCH.json"
    path.write_text(
        json.dumps(
            {
                "schema": "rfaas-repro-bench-v1",
                "entries": {
                    "base": {
                        "kernel_event_throughput": {"events_per_sec": 1_000_000},
                        "scale_openloop": scale_entry,
                    }
                },
            }
        )
    )
    return str(path)


def _results(rearm_batches):
    return {
        "kernel_event_throughput": {"events_per_sec": 1_000_000},
        "scale_openloop": {"lane_rearm_batches": rearm_batches},
    }


def test_lane_rearm_guard_passes_within_budget(tmp_path):
    baseline = _doc(tmp_path, {"lane_rearm_batches": 40})
    assert check_regression(_results(60), baseline, "base") == []
    assert check_regression(_results(160), baseline, "base") == []  # 4x of 40


def test_lane_rearm_guard_fails_on_explosion(tmp_path):
    baseline = _doc(tmp_path, {"lane_rearm_batches": 40})
    problems = check_regression(_results(161), baseline, "base")
    assert any("lane_rearm_batches" in p for p in problems)


def test_lane_rearm_guard_skips_old_baselines(tmp_path):
    baseline = _doc(tmp_path, {})  # recorded before the lane existed
    assert check_regression(_results(10_000), baseline, "base") == []
