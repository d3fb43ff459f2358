"""The benchmark's own tests (tiny sizes).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

They check that every workload prints every end-to-end metric with its
unit, that the traced run prints every per-layer metric, that a
deliberately perturbed oracle fails the run, that the benchmark refuses
to run without the program's sources, that ``BENCHMARK.json``
matches ``spec.py``, and that timings scale to the reference host
speed the right way round.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "5",
         "--seconds", "3", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    return last


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    out = result_of(run("--workload", workload, "--trace", "0"))
    want = {name: unit for name, unit, _ in spec.END_TO_END}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_every_per_layer_metric_in_the_traced_run(workload):
    out = result_of(run("--workload", workload, "--trace", "1"))
    want = {name: unit for name, unit in spec.PER_LAYER}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    m = {k: v["value"] for k, v in out["metrics"].items()}
    parts = sum(m[name] for name in spec.SPAN_METRICS.values())
    assert parts + m["trace.overhead_s"] == pytest.approx(
        m["trace.wall_s"], rel=1e-6)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_perturbed_oracle_fails_without_a_result(workload):
    proc = run("--workload", workload, "--trace", "0", "--perturb-oracle")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "check failed" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-bulk",
         "--seed", "1", "--seconds", "3", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        spec.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_self_times_add_up_to_the_wall_time():
    """Nested spans, two threads busy at once, and idle gaps."""
    t = tracing.Tracer()

    def span(sid, parent, name, start, end, tid=1):
        s = tracing.Span(sid, parent, name, start, tid, 1, True, {})
        s.end = end
        t.spans.append(s)

    span(1, None, "sweep", 1.0, 5.0)
    span(2, 1, "grid.flatten", 1.5, 2.0)
    span(3, None, "fallback", 3.0, 4.0, tid=2)
    owned, unowned = tracing.self_times(t.spans, 0.0, 6.0)
    assert unowned == pytest.approx(2.0)
    assert owned["grid.flatten"] == pytest.approx(0.5)
    assert owned["fallback"] == pytest.approx(0.5)
    assert owned["sweep"] == pytest.approx(3.0)
    assert sum(owned.values()) + unowned == pytest.approx(6.0)


def test_timings_scale_to_the_reference_host_speed():
    """On a host at half the reference speed, times halve and rates
    double; the wall-clock values stay in the record."""
    wl = workloads.WORKLOADS["design-loop"](1, 1.0, True, HERE)
    wl.host = common.HostSpeed()
    wl.host.samples = [2 * common.REFERENCE_S] * 3
    m = {"sweep_pts_per_s": 100.0, "compile_s": 1.0, "point_p50_us": 10.0,
         "sweep1_p50_us": 20.0, "serve_p50_ms_light": 9.0}
    wl.at_reference_speed(m)
    assert m == {"sweep_pts_per_s": 200.0, "compile_s": 0.5,
                 "point_p50_us": 5.0, "sweep1_p50_us": 10.0,
                 "serve_p50_ms_light": 9.0}
    assert wl.details["host"]["wall_clock"]["compile_s"] == 1.0
