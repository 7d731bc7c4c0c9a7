"""Quick test of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_quick.py -q

Every workload runs briefly in both modes; the metric names and units must
match ``BENCHMARK.json``, every operation must succeed, a deliberately wrong
expected verdict must count as a failed operation, traced counts must repeat
exactly, and the traced split must show each workload's bypassed layers.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from record import counts  # noqa: E402
from workloads import Ingest, NavigateHttp, Population  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
SEED = 3


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload to a second or two."""
    for workload in (Population, NavigateHttp):
        monkeypatch.setattr(workload, "corpus_hosts", 20)
        monkeypatch.setattr(workload, "blacklist_fraction", 0.002)
    monkeypatch.setattr(NavigateHttp, "navigations_per_round", 20)
    monkeypatch.setattr(NavigateHttp, "poll_every", 2)
    monkeypatch.setattr(Ingest, "bootstrap_entries", 300)
    monkeypatch.setattr(Ingest, "bootstrap_batch", 100)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    for workload in (Population, NavigateHttp, Ingest):
        monkeypatch.setattr(workload, "trace_rounds", 2)


def _run(workload: str, trace: bool, **kwargs) -> dict:
    return bench.run(workload, SEED, 0.05, trace, **kwargs)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    outcome = _run(workload, trace)
    assert outcome["correct"] is True
    assert outcome["failed"] == 0
    assert outcome["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    reported = {name: metric["unit"]
                for name, metric in outcome["metrics"].items()}
    assert reported == expected
    for name, metric in outcome["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_wrong_expected_verdict_is_a_failed_operation(workload):
    outcome = _run(workload, False, flip_first=True)
    # Every check of the flipped URL fails; some workloads revisit URLs.
    assert outcome["failed"] >= 1
    assert outcome["correct"] is False


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = (counts(_run(workload, True)["metrics"]) for _ in range(2))
    assert first == second


WIRE = ("transport.full_hash.calls", "transport.full_hash.s",
        "transport.update.s", "transport.bytes", "wireformat.s",
        "netservice.overhead_s")
STORAGE = ("storage.flush.calls", "storage.flush.ops", "storage.flush.s",
           "storage.file_bytes_per_prefix", "ingest.step.mutations",
           "ingest.step.s")


@pytest.mark.parametrize("workload, zero, busy", [
    ("population", WIRE + STORAGE, ("datastructures.update.s",
                                    "corpus.build_s")),
    ("navigate-http", STORAGE, WIRE + ("corpus.build_s",)),
    ("ingest", WIRE + ("corpus.build_s",), STORAGE),
])
def test_the_trace_shows_each_bypass(workload, zero, busy):
    metrics = _run(workload, True)["metrics"]
    for name in zero:
        assert metrics[name]["value"] == 0, name
    for name in busy:
        assert metrics[name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, *SPEC["command"], "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
