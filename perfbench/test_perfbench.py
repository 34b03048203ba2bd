"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_canary_cases_fail_and_their_controls_pass():
    assert workloads._brute_vs_airy_case(2, 7, 1, (3,), shift=0)() is None
    assert workloads._brute_vs_airy_case(2, 7, 1, (3,), shift=1)() is not None
    assert workloads._factor_case(3, (1, 0, 0), 5, 1)() is None
    assert workloads._factor_case(3, (1, 0, 0), 5, 1, perturb=True)() is not None


@pytest.mark.parametrize("workload", ["trace", "loop"])
def test_canary_run_exits_nonzero_without_timings(workload):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--canary")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0 and result["metrics"] == {}
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert report["fail_ratio"] > 0
    assert any("canary" in w for w in report["witnesses"])


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "trace", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["span_coverage"]["value"] >= 0.95


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "trace", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    tr = tracer.Tracer()
    leaf = tr.wrap("leaf", lambda: sum(range(20000)))

    def body():
        leaf()
        leaf()

    root = tr.wrap("root", body)
    root()
    calls, self_s, total_s, top = tr.summary(0, tr.mark())
    assert calls == {"root": 1, "leaf": 2}
    assert self_s["root"] == pytest.approx(total_s["root"] - total_s["leaf"])
    assert top == total_s["root"]


def test_scale_divides_each_stretch_by_the_probes_around_it():
    nominal = child.NOMINAL_PROBE_S
    # probes of nominal, twice nominal and nominal length, 1 s of cases between each
    marks = [(0.0, nominal), (1 + nominal, 1 + 3 * nominal), (2 + 3 * nominal, 2 + 4 * nominal)]
    raw, scaled = child.scale(marks)
    assert raw == pytest.approx(2.0)
    assert scaled == pytest.approx(2 * (1 / 1.5))


def test_speedometer_leaves_probe_time_out_of_case_time():
    speed = child.Speedometer()
    result, raw, scaled = speed.run(lambda: sum(range(300000)), periodic=True)
    assert result == sum(range(300000))
    assert len(speed.marks) >= 2
    assert 0 < raw <= speed.marks[-1][0] - speed.marks[0][1] + 1e-9
    assert scaled > 0
