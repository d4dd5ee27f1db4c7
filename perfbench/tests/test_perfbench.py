"""Tests of the benchmark itself, at tiny sizes through the same code path.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from regimes import REGIMES, WORKLOADS, regime_sizes  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

#: Invocations per rep small enough for a test.  scale-mix splits its
#: size over the regimes; 23,300 gives scale-backlog 2,008, just above
#: 2,000, where the summary's costly exact median-CI walk gives way to
#: the normal approximation.
TINY = {"invoke-hot": 32, "scale-mix": 23_300}
#: Reps of a run with ``--seconds 0``.
REPS = run.WARMUP_REPS + run.MIN_REPS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _rep_size(workload: str) -> int:
    if WORKLOADS[workload].kind == "hot":
        return TINY[workload]
    return sum(n for _, n in regime_sizes(TINY[workload]))


def test_every_workload_is_declared():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(WORKLOADS)
    assert sorted(TINY) == sorted(WORKLOADS)


def test_default_size_runs_every_regime_at_its_own_size():
    sizes = regime_sizes(WORKLOADS["scale-mix"].size)
    assert [(r.name, n) for r, n in sizes] == [(r.name, r.size) for r in REGIMES]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_printed_metrics_match_declaration(workload, trace):
    out = _cli(
        "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--size", str(TINY[workload]),
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    section = "per_layer" if trace else "end_to_end"
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(section)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= REPS * _rep_size(workload)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(out.stdout.strip().splitlines()[-2])["record"]
    assert record["provenance"]["workload"] == workload
    assert record["provenance"]["seed"] == 7
    assert record["provenance"]["size"] == TINY[workload]


def test_per_layer_metrics_have_a_layer():
    layers = json.loads((BENCH / "layers.json").read_text())
    named = [m for layer in layers["layers"] for m in layer["metrics"]]
    assert sorted(named) == sorted(_declared("per_layer"))
    assert len(named) == len(set(named))


def test_tampered_fingerprint_fails_every_invocation_of_its_regime():
    size = TINY["scale-mix"]
    truth = {name: ref["fingerprint"] for name, ref in run.referee_child(3, size).items()}
    _, honest = run.measure("scale-mix", 3, 0, False, size, expected=truth)
    assert honest["correct"] and honest["failed"] == 0
    backlog = truth["scale-backlog"]
    tampered = dict(truth)
    tampered["scale-backlog"] = dict(backlog, final_now_ns=backlog["final_now_ns"] + 1)
    _, result = run.measure("scale-mix", 3, 0, False, size, expected=tampered)
    backlog_size = {r.name: n for r, n in regime_sizes(size)}["scale-backlog"]
    assert result["correct"] is False
    assert result["failed"] == REPS * backlog_size
    assert result["attempted"] == REPS * _rep_size("scale-mix")


def test_tampered_round_trip_fails_every_invocation():
    rtts = run.pinned_rtts(run.load_pins())
    tampered = {size: rtt + 1 for size, rtt in rtts.items()}
    _, result = run.measure("invoke-hot", 3, 0, False, TINY["invoke-hot"], expected=tampered)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == REPS * TINY["invoke-hot"]


def test_tracer_restores_every_patched_function():
    def current():
        found = {}
        for module_name, path, _name, _observer in TARGETS:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            found[(module_name, path)] = owner
        return found

    before = current()
    with Tracer() as tracer:
        assert not tracer.missing
        assert all(before[key] is not fn for key, fn in current().items())
    assert current() == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli("--workload", "scale-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
