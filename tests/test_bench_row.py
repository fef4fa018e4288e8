from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_row.py"
_spec = importlib.util.spec_from_file_location("bench_row", _SCRIPT)
bench_row = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_row)

RESULT = {
    "correct": True,
    "attempted": 14329,
    "failed": 0,
    "metrics": {"decision_p50_us": {"value": 954.1535, "unit": "us"}},
}
IDENTITY = {"commit": "4e7a971b", "src_tree": "9f1c0d2e", "clean": True}


class TestMakeRow:
    def test_row_holds_identity_and_last_line(self):
        stdout = "a progress note\n" + json.dumps(RESULT) + "\n"
        row = bench_row.make_row(stdout, side="parent", workload="complexity", seed=601,
                                 identity=IDENTITY)
        assert row == {"side": "parent", "workload": "complexity", "seed": 601,
                       **IDENTITY, "result": RESULT}

    def test_no_output_is_an_error(self):
        with pytest.raises(ValueError, match="no result"):
            bench_row.make_row("\n", side="change", workload="complexity", seed=1,
                               identity=IDENTITY)

    def test_last_line_not_json_is_an_error(self):
        with pytest.raises(json.JSONDecodeError):
            bench_row.make_row(json.dumps(RESULT) + "\nTraceback", side="change",
                               workload="complexity", seed=1, identity=IDENTITY)


class TestFailedRun:
    def test_failed_run_is_reported_and_exits_non_zero(self, monkeypatch, tmp_path, capsys):
        stderr = "".join(f"line {i}\n" for i in range(30)) + "ValueError: boom\n"

        def failing_run(checkout, workload, seed, seconds):
            return subprocess.CompletedProcess(["perfbench/run.py"], 3, stdout="", stderr=stderr)

        monkeypatch.setattr(bench_row, "run_perfbench", failing_run)
        monkeypatch.setattr(bench_row, "checkout_identity", lambda checkout: IDENTITY)
        monkeypatch.setattr(bench_row, "ROOT", tmp_path)
        status = bench_row.main(["--pr", "0", "--workloads", "complexity", "--seeds", "601",
                                 "--seconds", "1"])
        report = capsys.readouterr().err.splitlines()
        assert status == 1
        assert report[0] == "complexity seed 601 change: exit code 3"
        assert report[1:] == stderr.splitlines()[-20:]
        assert not (tmp_path / "BENCH_0.json").exists()


class TestCpuModel:
    def test_first_model_name(self):
        cpuinfo = ("processor\t: 0\nvendor_id\t: GenuineIntel\n"
                   "model name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n\n"
                   "processor\t: 1\nmodel name\t: other\n")
        assert bench_row.cpu_model(cpuinfo) == "Intel(R) Xeon(R) CPU @ 2.20GHz"

    def test_missing_is_unknown(self):
        assert bench_row.cpu_model("processor\t: 0\nCPU implementer\t: 0x41\n") == "unknown"
