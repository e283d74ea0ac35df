"""Tests of the snap-bench benchmark itself.

Run from the repository root::

    python3 -m pytest snapbench/tests -q

Each workload runs at a short horizon here, so the suite takes seconds.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from repro.core.kernel import Kernel  # noqa: E402
from repro.report.trajectory import scan_run  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402
from spans import Tracer, installed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: Short horizons that still carry radio traffic on the networks.
QUICK_HORIZON_S = {"convergecast-32": 0.25, "blink-solo": 0.2,
                   "convergecast-4-armed": 0.25}


def quick(name):
    return dataclasses.replace(WORKLOADS[name],
                               horizon_s=QUICK_HORIZON_S[name])


@pytest.fixture(scope="module")
def traced():
    return {name: run.measure(quick(name), seed=0, seconds=0, trace=True)
            for name in WORKLOADS}


def test_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {item["name"]: item["why"] for item in spec["workloads"]} == \
        {name: workload.why for name, workload in WORKLOADS.items()}
    assert {item["name"]: item["unit"] for item in spec["end_to_end"]} == \
        run.END_TO_END
    assert {item["name"]: item["unit"] for item in spec["per_layer"]} == \
        run.PER_LAYER
    for name in list(WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.match(name), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric(traced, name, capsys):
    result = traced[name]
    for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        line = run.report(WORKLOADS[name], result, trace)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {metric: value["unit"]
                for metric, value in line["metrics"].items()} == wanted
    printed = capsys.readouterr().out
    for metric, unit in dict(run.END_TO_END, failed_frac="share").items():
        assert re.search(r"^  %s +\S+ %s\b" % (re.escape(metric), unit),
                         printed, re.M), metric
    for metric in ("setup_s", "run_s", "sim_ips", "peak_rss_mb",
                   "obs_overhead_x"):
        assert result["end_to_end"][metric] > 0


def test_wrong_reference_digest_counts_every_run_as_failed():
    workload = quick("blink-solo")
    reference = workload.run(0, fast_path=False).output
    assert run.measure(workload, 0, 0, reference=reference)["failed"] == 0
    wrong = dict(reference, instructions=reference["instructions"] + 1)
    result = run.measure(workload, 0, 0, reference=wrong)
    assert result["failed"] == result["attempted"] > 0
    assert not run.report(workload, result, False)["correct"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_add_up_to_traced_run_time(traced, name):
    layers = traced[name]["per_layer"]
    residual = layers["trace.residual_s"]
    total = sum(layers[metric] for metric in run.RUN_LAYERS) + residual
    assert total == pytest.approx(layers["trace.run_s"], rel=1e-12)
    # Overlapping spans would push the residual below zero; the only
    # uncovered run-phase work is result collection around Kernel.run.
    assert 0 <= residual < 0.1 * layers["trace.run_s"]
    assert all(layers[metric] >= 0 for metric in run.RUN_LAYERS)


def test_traced_run_confirms_bypass_predictions(traced):
    blink = traced["blink-solo"]["per_layer"]
    for metric in ("channel.words", "channel.in_range_calls",
                   "channel.busy_near_calls", "radio.deliver_calls",
                   "obs.hook_calls", "obs.instruction_retired_calls"):
        assert blink[metric] == 0, metric
    bare = traced["convergecast-32"]["per_layer"]
    assert bare["obs.hook_calls"] == bare["obs.instruction_retired_calls"] \
        == 0
    assert bare["asm.assemble_calls"] > blink["asm.assemble_calls"]
    assert bare["channel.self_s"] == max(bare[metric]
                                         for metric in run.RUN_LAYERS)
    armed = traced["convergecast-4-armed"]
    assert armed["per_layer"]["obs.instruction_retired_calls"] == \
        armed["per_layer"]["core.instructions"] > 0
    assert armed["end_to_end"]["obs_overhead_x"] > 1


def test_tracing_restores_every_patched_function():
    before = dict(vars(Kernel))
    import repro.netstack.drivers as drivers
    assemble = drivers.assemble
    with installed(Tracer()):
        assert drivers.assemble is not assemble
        assert vars(Kernel)["schedule"] is not before["schedule"]
    assert drivers.assemble is assemble
    assert dict(vars(Kernel)) == before


def _copy_bench(destination):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), destination)
    shutil.copytree(BENCH, os.path.join(destination, "snapbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))


def test_cli_result_line_and_trajectory_dump(tmp_path):
    out = tmp_path / "results"
    child = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "blink-solo", "--seed", "3", "--seconds", "0", "--trace", "0",
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120, check=False)
    assert child.returncode == 0
    line = json.loads(child.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and set(line["metrics"]) == set(run.END_TO_END)
    metrics = scan_run(str(out))["metrics"]
    for name in run.END_TO_END:
        assert metrics["snapbench.blink-solo.%s" % name] == \
            line["metrics"][name]["value"]
    assert metrics["snapbench.blink-solo.failed_frac"] == 0


def test_cli_fails_without_the_program_source(tmp_path):
    _copy_bench(str(tmp_path))
    child = subprocess.run(
        [sys.executable, "snapbench/run.py", "--workload", "blink-solo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, check=False)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
