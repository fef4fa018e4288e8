"""Characterization test of the whole pipeline on a committed event log.

The records rebuilt from ``tests/golden/events.jsonl``, both committed
models' scores on the row and batch paths and their decisions must equal
``tests/golden/expected.json`` bit for bit, and refitting both models must
write the committed model files byte for byte. A change that means to move
these outputs rewrites the fixture with ``scripts/write_golden.py`` and says
which outputs moved and why; a numpy or BLAS upgrade that moves one by an
ulp rewrites it in its own step. The test takes no tolerance.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from suggestgate.model import load_model, save_model

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "write_golden.py"
_spec = importlib.util.spec_from_file_location("write_golden", _SCRIPT)
write_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_golden)

GOLDEN = write_golden.GOLDEN


@pytest.fixture(scope="module")
def records():
    return write_golden.read_records()


@pytest.fixture(scope="module")
def expected():
    return json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))


def test_records_rebuild_exactly(records, expected):
    assert [{"x": list(r.x), "y": r.y} for r in records] == expected["records"]


@pytest.mark.parametrize("kind", list(write_golden.MODEL_FILES))
def test_scores_and_decisions_are_bit_equal(records, expected, kind):
    model = load_model(GOLDEN / write_golden.MODEL_FILES[kind])
    got = write_golden.outputs(records, {kind: model})[kind]
    want = expected[kind]
    assert got["tau"] == want["tau"]
    assert got["row"] == want["row"]
    assert got["batch"] == want["batch"]
    assert got["decision"] == want["decision"]
    assert {"Trigger", "Suppress"} <= set(want["decision"])


def test_refit_writes_the_committed_model_files(records, tmp_path):
    for kind, model in write_golden.fit_models(records).items():
        name = write_golden.MODEL_FILES[kind]
        save_model(model, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
