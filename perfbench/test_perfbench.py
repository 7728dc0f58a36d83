"""The benchmark's own tests: a smoke run of every workload with a check
of the metric schema, and the outcome rules.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_metric_schema(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    required = {m["name"] for m in declared if not m["name"].startswith("cache.")}
    assert required <= set(result["metrics"]) <= {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_wrong_answer_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    refs_path = tmp_path / "perfbench" / "corpus" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["enumerate:worked_pair"]["summary"]["largest"] = [[9, 9]]
    refs_path.write_text(json.dumps(refs))
    proc = _run(tmp_path, "--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


REPORT = {"passed": True, "checks": {"enumerate": "pass", "brute-force-agreement": "skip"}}


def _xval(checks, passed=True):
    return {"command": "cross-validate", "exit": 0 if passed else 1, "error": None,
            "summary": {"passed": passed, "checks": checks}}


def test_a_skipped_check_that_now_passes_is_not_wrong():
    ref = {"outcome": "ok", "exit": 0, "summary": REPORT}
    assert check.classify(_xval({"enumerate": "pass", "brute-force-agreement": "pass"}), ref) == "ok"
    assert check.classify(_xval({"enumerate": "skip", "brute-force-agreement": "skip"}), ref) == "wrong"
    assert check.classify(_xval({"enumerate": "fail"}, passed=False), ref) == "wrong"


def test_summary_ignores_keys_the_reference_does_not_pin():
    doc = {"non_lc_ideal": {"generators": [[1, 2]], "serialized": "(1,2)"}, "trace": {"stages": []}}
    assert check.summarize("non-lc", doc) == {"non_lc_ideal": [[1, 2]]}


def test_cap_errors_and_operations_without_a_reference():
    cap = {"command": "enumerate", "exit": 2, "error": "UnboundedMinimalSetError", "summary": None}
    assert check.classify(cap, {"outcome": "ok", "exit": 0, "summary": {}}) == "cap"
    assert check.classify(dict(cap, error="InstanceError"), None) == "error"
    nonlc = {"outcome": "ok", "exit": 0, "summary": {"non_lc_ideal": [[0, 1]]}}
    done = {"command": "enumerate", "exit": 0, "error": None,
            "summary": {"records": [], "smallest_nonzero": [[1, 1]], "largest": [[0, 1]]}}
    ref = {"outcome": "cap", "exit": 2}
    assert check.classify(done, ref, nonlc) == "ok"
    assert check.classify(dict(done, summary=dict(done["summary"], largest=[[0, 2]])), ref, nonlc) == "wrong"
