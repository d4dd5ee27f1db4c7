"""Regression tests for the sparse-calendar and backlog cliffs.

Both were wall-time cliffs of the scale engines; these tests pin them
with deterministic counters instead of wall time:

* *Sparse calendar.*  A run with fewer events than one adaptation
  window used to keep the auto wheel at its 256 ns start geometry, so
  ``_refill`` walked millions of empty slots.  The wheel now also
  re-anchors once a window's worth of empty-slot probes has built up,
  which bounds the lifetime ``probes`` counter by a small multiple of
  the events processed.
* *Backlog.*  The lease lane drained exactly, one completion at a time,
  whenever a backlog existed.  It now serves only shards that cannot
  queue (``invocations <= slots``); every other queue-policy shard
  takes the hop-virtualized batch kernel (the routing tests live in
  ``test_scale_lane.py``).  The lane-off run below is that kernel on a
  backlogged shard, whose ~400 ms completions sat behind the sparse
  calendar too.

Every run is also checked against the per-event heap referee.
"""

import pytest

from repro.experiments.scale import QUICK_KWARGS, run_scale, run_tenant_scale

#: Probe budget per processed event; the 256 ns start geometry walked
#: hundreds of empty slots per event on both runs below.
PROBES_PER_EVENT = 16


def _referee(run, **kwargs):
    return run(scheduler="heap", admission="per-event", **kwargs).fingerprint()


@pytest.mark.parametrize(
    "run, kwargs",
    [
        (run_tenant_scale, {"invocations": 3_000, "partitioning": "shared"}),
        (run_scale, dict(QUICK_KWARGS, lease_lane="off")),
    ],
    ids=["tenant-sparse", "scale-quick-lane-off"],
)
def test_sparse_calendar_reanchors_within_probe_budget(run, kwargs):
    result = run(granularity_bits="auto", **kwargs)
    occ = result.occupancy
    assert occ["reanchors"] >= 1
    assert occ["granularity_bits"] >= 16
    assert occ["probes"] <= PROBES_PER_EVENT * result.events_processed
    assert result.fingerprint() == _referee(run, **kwargs)

