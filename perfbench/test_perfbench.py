"""Tests of the benchmark itself, on short simulated windows.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import gate, run
from perfbench.check_layers import layer_problems
from perfbench.workloads import WORKLOADS, EcDegradedRebuild, Outcome
from repro.metrics.latency import LatencyRecorder

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: short windows keep every test in seconds; the rack needs enough
#: simulated time for its one live migration
SCALE = {"fio-rmw-4k": 0.25, "ec-degraded-rebuild": 0.1, "rack-tenancy": 0.4}
#: per-layer metrics measured in host time, which never repeat exactly
HOST_TIME_METRICS = {"ec.host_mb_per_s", "trace.overhead"}


def short_run(name: str, seed: int = 3, trace: bool = False):
    return run.measure(WORKLOADS[name], seed, 0, trace=trace, scale=SCALE[name])


@pytest.fixture(scope="module")
def results():
    """One untraced and one traced short run of every workload."""
    return {
        (name, trace): short_run(name, trace=trace)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_workload_names_and_reasons_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_metric_names_match_benchmark_json(results):
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for (name, trace), result in results.items():
        assert not result["problems"], (name, trace, result["problems"])
        assert sorted(result["metrics"]) == sorted(per_layer if trace else end_to_end)


def test_end_to_end_metrics_are_never_zero(results):
    for (name, trace), result in results.items():
        if not trace:
            assert all(v > 0 for v in result["metrics"].values()), name


def test_per_io_counts_repeat_across_runs(results):
    again = short_run("fio-rmw-4k", trace=True)
    first = results[("fio-rmw-4k", True)]["metrics"]
    counts = [k for k in first
              if not k.endswith(".self_share") and k not in HOST_TIME_METRICS]
    assert any(k.endswith("_per_io") for k in counts)
    assert {k: first[k] for k in counts} == {k: again["metrics"][k] for k in counts}


def test_seed_changes_the_inputs(results):
    a = results[("fio-rmw-4k", False)]["metrics"]
    b = short_run("fio-rmw-4k", seed=4)["metrics"]
    assert a["sim_p99_us"] != b["sim_p99_us"]


def test_layer_checks_hold_on_short_runs(results):
    shares = {name: results[(name, True)]["metrics"] for name in WORKLOADS}
    assert layer_problems(shares) == []


def test_gate_trips_on_a_tampered_digest(monkeypatch, capsys):
    assert gate.repeat_problems("x", ["a", "a"]) == []
    assert gate.repeat_problems("x", ["a", "a", "b"])

    digests = iter(range(1_000_000))
    monkeypatch.setattr(gate, "digest", lambda record: str(next(digests)))
    measure = run.measure
    monkeypatch.setattr(
        run, "measure",
        lambda cls, *args: measure(cls, *args, scale=SCALE[cls.name]),
    )
    code = run.main(["--workload", "fio-rmw-4k", "--seed", "3", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False


def test_gate_trips_on_a_flipped_byte_in_the_read_back(monkeypatch):
    workload = EcDegradedRebuild(3, scale=SCALE["ec-degraded-rebuild"])
    bed = workload.setup()
    outcome = workload.run(bed)
    assert workload.verify(bed, outcome) == []

    honest = workload.read_back

    def flipped(bed):
        data = honest(bed).copy()
        data[12345] ^= 0x01
        return data

    monkeypatch.setattr(workload, "read_back", flipped)
    problems = workload.verify(bed, outcome)
    assert any("wrong bytes" in p for p in problems)


def test_readback_check():
    expected = np.arange(64, dtype=np.uint8)
    assert gate.readback_problems(expected, expected.copy()) == []
    assert gate.readback_problems(expected, expected[:-1])
    bad = expected.copy()
    bad[7] = 0
    assert gate.readback_problems(expected, bad)


def test_accounting_check():
    def outcome(**counts):
        base = dict(latency=LatencyRecorder(), sim_bytes=0, sim_ns=1, extra={},
                    issued=10, completed=10, completed_bytes=0, errors={},
                    unsettled=0)
        return Outcome(**{**base, **counts})

    assert gate.accounting_problems(outcome()) == []
    assert gate.accounting_problems(outcome(completed=8, errors={"Busy": 2})) == []
    assert gate.accounting_problems(outcome(completed=9, unsettled=1))
    assert gate.accounting_problems(outcome(completed=9))
    assert gate.accounting_problems(outcome(issued=0, completed=0))


def test_host_times_are_medians_corrected_for_the_slowdown():
    def rep(run_s, slowdown):
        return run.Rep(setup_s=0.0, run_s=run_s, outcome=None, digest="",
                       problems=[], slowdown=slowdown)

    reps = [[rep(2.0, 2.0), rep(9.0, 1.0), rep(3.0, 1.5)], [rep(4.0, 1.0)]]
    assert run._cycle_seconds(reps, "run_s") == 2.0 + 4.0
    assert run._cycle_seconds(reps, "run_s", corrected=False) == 3.0 + 4.0


def test_calibration_leaves_the_collector_on():
    assert gc.isenabled()
    assert run.calibrate(rounds=100) > 0
    assert gc.isenabled()


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fio-rmw-4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
