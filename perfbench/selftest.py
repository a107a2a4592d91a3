"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They cover the tail rule, how a run spreads its timing over its
children, failure accounting (in the timed phase and during set-up),
the metric names and units of ``BENCHMARK.json``, a quick mode running
a few ops of every workload, and the refusal to run without the
program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import Checker, CheckError, cell_key, load_expected  # noqa: E402
from stats import benchmark, metric_table, tail  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [workload["name"] for workload in benchmark()["workloads"]]


# -- the tail rule -----------------------------------------------------


@pytest.mark.parametrize(
    ("n", "percentile"), [(20, 50), (21, 52), (100, 90), (200, 95), (600, 98), (1000, 99)]
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    values = [float(i) for i in range(1, n + 1)]
    got, value = tail(values)
    assert got == percentile
    assert sum(v > value for v in values) >= 10
    # One percentile higher would leave fewer than ten beyond.
    if percentile < 99:
        rank = -(-(percentile + 1) * n // 100)
        assert n - rank < 10


def test_tail_ignores_input_order():
    values = [float(i % 37) for i in range(500)]
    assert tail(values) == tail(sorted(values)) == tail(sorted(values, reverse=True))


def test_tail_without_enough_samples_flags_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (None, 3.0)
    assert tail([float(i) for i in range(19)]) == (None, 18.0)


# -- timing windows ----------------------------------------------------


@pytest.mark.parametrize("repeat_s", [0.7, 2.0, 4.2, 5.0, 8.0, 12.0, 40.0])
@pytest.mark.parametrize("seconds", [1, 10, 15, 30])
def test_windows_time_about_seconds_in_whole_repeats(seconds, repeat_s):
    """Children time until the run's total is nearest ``--seconds``,
    with at least two repeats, following ``timed_phase``'s stop rule."""
    import argparse

    import run

    args = argparse.Namespace(seconds=seconds, quick=False)
    timed, repeats, windows = 0.0, 0, []
    for part in range(run.CHILDREN):
        window = run.window(args, part, timed, repeats)
        windows.append(window)
        done = 0
        while window > 0:
            done += 1
            if done * repeat_s + repeat_s / 2 >= window:
                break
        timed, repeats = timed + done * repeat_s, repeats + done
    assert windows[0] > 0
    assert repeats >= run.MIN_REPEATS
    if repeats > run.MIN_REPEATS:
        assert abs(timed - seconds) <= repeat_s / 2 + 1e-9, (windows, timed)


# -- failure accounting ------------------------------------------------


def wrong_expected(key: str, field: str, delta: float) -> dict:
    data = load_expected()
    data["cells"][key] = dict(data["cells"][key])
    data["cells"][key][field] += delta
    return data


def test_checker_rejects_a_wrong_expected_value():
    key = cell_key("tinyyolov4", 117, "none", "clsa-cim")
    good = load_expected()["cells"][key]

    class Metrics:
        latency_cycles = good["latency_cycles"]
        num_pes = 117
        utilization = good["utilization"]
        per_layer_busy = {}

    Checker().check_metrics("tinyyolov4", 117, "none", "clsa-cim", Metrics, good["energy_uj"])
    checker = Checker(wrong_expected(key, "energy_uj", 1e-3))
    with pytest.raises(CheckError, match="energy_uj"):
        checker.check_metrics("tinyyolov4", 117, "none", "clsa-cim", Metrics, good["energy_uj"])


def test_injected_wrong_value_counts_as_failed_op(tmp_path):
    import workloads

    ctx = workloads.Context(workload="paper-grid", seed=1, seconds=1, trace=False, quick=True,
                            spawn=time.monotonic(), import_s=0.0, scratch=str(tmp_path),
                            out_dir=str(tmp_path))
    checker = Checker(wrong_expected(cell_key("tinyyolov4", 133, "wdup", "clsa-cim"),
                                     "latency_cycles", 1))
    latencies: list[float] = []
    attempted = workloads.grid_pass(ctx, checker, ("tinyyolov4",), latencies)
    assert attempted == len(latencies) == 10
    assert ctx.failed == 1
    assert "latency_cycles" in ctx.errors[0]


@pytest.mark.parametrize("workload", ["warm-store", "service-mix", "verified-pool"])
def test_wrong_output_during_setup_fails_the_run(workload, tmp_path):
    """Set-up checks outputs too (store population, service and pool
    warm-up); a wrong one is a failed op and the run exits 1 with its
    result line, instead of crashing."""
    key = cell_key("tinyyolov4", 117, "none", "clsa-cim")
    copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    (tmp_path / "perfbench" / "expected.json").write_text(
        json.dumps(wrong_expected(key, "latency_cycles", 1)))
    done = run_bench("--workload", workload, "--seed", "2", "--seconds", "1", "--quick",
                     cwd=str(tmp_path))
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "latency_cycles" in done.stdout


def test_paper_reference_points_are_enforced():
    key = cell_key("tinyyolov4", 117, "none", "layer-by-layer")
    good = load_expected()["cells"][key]

    class Metrics:
        latency_cycles = good["latency_cycles"]
        num_pes = 117
        utilization = good["utilization"]
        per_layer_busy = {f"conv{i}": 1 for i in range(20)}  # paper: 21 base layers

    with pytest.raises(CheckError, match="base_layers"):
        Checker().check_metrics("tinyyolov4", 117, "none", "layer-by-layer", Metrics)


# -- metric names and units --------------------------------------------


def test_benchmark_json_names_and_units():
    bench = benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


# -- quick mode ----------------------------------------------------------


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


def copy_benchmark(into) -> None:
    """``BENCHMARK.json`` and this directory, without the program."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)
    shutil.copytree(HERE, into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_runs_every_workload(workload, trace):
    done = run_bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", trace,
                     "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = metric_table("per_layer" if trace == "1" else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == table
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "error_rate" in done.stdout and "n=" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    done = run_bench("--workload", "paper-grid", "--seed", "1", "--seconds", "1",
                     cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
