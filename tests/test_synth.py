from __future__ import annotations

import pytest

from suggestgate.dataset import SuggestionRecord, class_weights, stratified_split
from suggestgate import synth
from suggestgate.errors import InvalidConfig, SchemaError
from suggestgate.evaluation import roc_auc
from suggestgate.model import fit_logistic, fit_tree_ensemble, predict_proba_batch, split_to_arrays
from suggestgate.synth import (
    SynthConfig,
    _draw,
    _stream,
    ground_truth_scores,
    read_labels_jsonl,
    synth_sessions,
    write_synth_outputs,
    xor_variant_config,
)
from suggestgate.telemetry import TelemetryEvent, read_jsonl

SMALL_CONFIGS = pytest.mark.parametrize(
    "config",
    [SynthConfig(n_sessions=8, seed=3), xor_variant_config(seed=5, n_sessions=8)],
    ids=["logistic-truth", "xor-truth"],
)


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


class TestGroundTruth:
    @SMALL_CONFIGS
    def test_labels_carry_the_oracle_score(self, config):
        result = synth_sessions(config)
        oracle = ground_truth_scores(config, result.records, result.bias)
        assert [label["p_true"] for label in result.labels] == oracle.tolist()

    @SMALL_CONFIGS
    def test_two_runs_write_identical_files(self, config, tmp_path):
        runs = [[tmp_path / f"{run}-{name}.jsonl" for name in ("e", "l", "r")] for run in "ab"]
        for paths in runs:
            write_synth_outputs(synth_sessions(config), *paths)
        for a, b in zip(*runs):
            assert a.read_bytes() == b.read_bytes()

    def test_oracle_ranks_test_split_at_least_as_well_as_fitted_models(self):
        # 100 sessions give about 400 test records; at 20-60 sessions the
        # test split is small enough that a fitted model can tie or edge past
        # the oracle by chance.
        config = SynthConfig(n_sessions=100)
        result = synth_sessions(config)
        split = stratified_split(result.records)
        weights = class_weights(split.train)
        X_train, y_train = split_to_arrays(split.train)
        X_test, y_test = split_to_arrays(split.test)
        oracle = roc_auc(ground_truth_scores(config, split.test, result.bias), y_test)
        for fit in (fit_logistic, fit_tree_ensemble):
            model = fit(X_train, y_train, weights)
            assert oracle >= roc_auc(predict_proba_batch(model, X_test), y_test)


class TestValidate:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_sessions": 0}, "n_sessions"),
            ({"mean_session_minutes": 0.5}, "mean_session_minutes"),
            ({"base_acceptance": 0.0}, "base_acceptance"),
            ({"base_acceptance": 1.0}, "base_acceptance"),
            ({"requests_per_minute": 0.0}, "requests_per_minute"),
            ({"requests_per_minute": -1.0}, "requests_per_minute"),
        ],
    )
    def test_refusal(self, overrides, message):
        with pytest.raises(InvalidConfig, match=message):
            synth_sessions(SynthConfig(**overrides))

    def test_no_requests_is_refused_before_any_stream_pass(self, monkeypatch):
        monkeypatch.setattr(synth, "_stream", lambda *args: pytest.fail("streamed"))
        with pytest.raises(InvalidConfig, match="no suggestion requests"):
            synth_sessions(SynthConfig(n_sessions=1, requests_per_minute=1e-12))


class TestCalibration:
    @pytest.mark.parametrize("base", [0.18, 0.3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_realized_rate_meets_the_base_rate(self, base, seed):
        result = synth_sessions(SynthConfig(n_sessions=100, seed=seed, base_acceptance=base))
        assert abs(result.realized_acceptance - base) <= 0.005

    def test_stream_passes_share_the_draw_and_a_higher_bias_only_adds_accepts(self):
        # Bisection on the bias needs the accepted set to grow with it.
        config = SynthConfig(n_sessions=30, seed=3)
        draw = _draw(config)
        results = [_stream(config, draw, bias) for bias in (-4.0, -3.0, -2.5, -2.0, -1.0)]
        accepted = [{label["suggestion_id"] for label in r.labels if label["accepted"]}
                    for r in results]
        for lower, higher in zip(results, results[1:]):
            assert lower.events == higher.events
        for lower, higher in zip(accepted, accepted[1:]):
            assert lower < higher
