from __future__ import annotations

import pytest

from suggestgate.dataset import SuggestionRecord
from suggestgate.errors import SchemaError
from suggestgate.synth import SynthConfig, read_labels_jsonl, synth_sessions, write_synth_outputs
from suggestgate.telemetry import TelemetryEvent, read_jsonl


class TestOutputs:
    def test_round_trip(self, tmp_path):
        result = synth_sessions(SynthConfig(n_sessions=2, mean_session_minutes=6))
        events, labels, records = (tmp_path / n for n in ("e.jsonl", "l.jsonl", "r.jsonl"))
        write_synth_outputs(result, events, labels, records)
        assert result.labels
        assert list(read_jsonl(labels)) == result.labels
        assert read_labels_jsonl(labels) == {
            label["suggestion_id"]: label["accepted"] for label in result.labels
        }
        assert [TelemetryEvent.from_json_dict(o) for o in read_jsonl(events)] == result.events
        assert [SuggestionRecord.from_json_dict(o) for o in read_jsonl(records)] == result.records

    @pytest.mark.parametrize(
        "line",
        [
            '{"suggestion_id": "a", "accepted": tru',
            '["a", true]',
            '{"accepted": true}',
            '{"suggestion_id": "a"}',
            '{"suggestion_id": "a", "accepted": "yes"}',
        ],
    )
    def test_corrupt_label_line_raises_schema_error(self, tmp_path, line):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"suggestion_id": "ok", "accepted": false}\n' + line + "\n")
        with pytest.raises(SchemaError):
            read_labels_jsonl(path)
