from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "time_synth.py"
_spec = importlib.util.spec_from_file_location("time_synth", _SCRIPT)
time_synth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_synth)


def test_a_run_times_synth_and_its_records_in_a_fresh_process():
    synth, records = time_synth.time_run(time_synth.ROOT, seed=0)
    assert synth > 0.0 and records > 0.0


def test_sides_alternate_and_medians_are_printed(monkeypatch, tmp_path, capsys):
    seconds = {time_synth.ROOT: iter([(0.3, 0.1), (0.2, 0.1), (0.4, 0.2)]),
               tmp_path: iter([(1.5, 0.5), (1.0, 0.5), (2.0, 1.0)])}
    order = []

    def fake_run(checkout, seed):
        order.append((seed, "change" if checkout == time_synth.ROOT else "parent"))
        return next(seconds[checkout])

    monkeypatch.setattr(time_synth, "time_run", fake_run)
    assert time_synth.main(["--seeds", "4", "5", "6", "--parent", str(tmp_path)]) == 0
    assert order == [(4, "parent"), (4, "change"), (5, "change"), (5, "parent"),
                     (6, "parent"), (6, "change")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["seed 4 parent: synth 1.500 s, records 0.500 s",
                         "seed 4 change: synth 0.300 s, records 0.100 s"]
    assert lines[-3:] == ["change median: synth 0.300 s, records 0.100 s, both 0.400 s",
                          "parent median: synth 1.500 s, records 0.500 s, both 2.000 s",
                          "change / parent: synth 0.20, records 0.20, both 0.20"]
