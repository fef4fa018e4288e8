from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "time_synth.py"
_spec = importlib.util.spec_from_file_location("time_synth", _SCRIPT)
time_synth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_synth)


def test_a_run_times_this_checkout_in_a_fresh_process():
    assert time_synth.time_run(time_synth.ROOT, seed=0) > 0.0


def test_sides_alternate_and_medians_are_printed(monkeypatch, tmp_path, capsys):
    seconds = {time_synth.ROOT: iter([0.3, 0.2, 0.4]), tmp_path: iter([1.5, 1.0, 2.0])}
    order = []

    def fake_run(checkout, seed):
        order.append((seed, "change" if checkout == time_synth.ROOT else "parent"))
        return next(seconds[checkout])

    monkeypatch.setattr(time_synth, "time_run", fake_run)
    assert time_synth.main(["--seeds", "4", "5", "6", "--parent", str(tmp_path)]) == 0
    assert order == [(4, "parent"), (4, "change"), (5, "change"), (5, "parent"),
                     (6, "parent"), (6, "change")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["seed 4 parent: 1.500 s", "seed 4 change: 0.300 s"]
    assert lines[-3:] == ["change median: 0.300 s", "parent median: 1.500 s",
                          "change / parent: 0.20"]
