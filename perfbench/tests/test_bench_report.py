"""The report names every workload and metric, and its results round-trip."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_report_prints_every_metric_and_round_trips(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "report.py"), "--seeds", "0", "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [ln.split() for ln in proc.stdout.splitlines() if not ln.startswith("#")]
    printed = {(r[0], r[1]) for r in rows[1:]}
    doc = json.loads(out.read_text())
    assert json.loads(json.dumps(doc)) == doc
    for w in spec["workloads"]:
        for key in ("end_to_end", "per_layer"):
            for m in spec[key]:
                assert (w["name"], m["name"]) in printed
                s = doc["summary"][w["name"]][key][m["name"]]
                assert s["unit"] == m["unit"] and s["n"] == 1
    for run in doc["runs"]:
        assert set(run["result"]) == {"correct", "attempted", "failed", "metrics"}
        assert run["detail"]["seed"] == 0 and "openblas_threads" in run["detail"]["env"]


def test_run_without_the_program_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-hyperbola", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_failed_operation_is_reported_in_the_result_with_exit_code_0(monkeypatch, capsys):
    sys.path.insert(0, str(BENCH))
    import checker
    import run
    import workloads

    broken = workloads.Workload(
        "always-fails", "hyperbola",
        lambda seed: {"op": lambda: None},
        lambda out, seed, refs: [checker.Outcome("op", False, "broken on purpose")],
    )
    monkeypatch.setitem(workloads.WORKLOADS, broken.name, broken)
    code = run.main(["--workload", broken.name, "--seed", "0", "--seconds", "0.1", "--trace", "0"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.splitlines()[-1])
    assert code == 0
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1
    assert "broken on purpose" in captured.err
