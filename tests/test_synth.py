from __future__ import annotations

import pytest

from suggestgate.dataset import SuggestionRecord, class_weights, records_from_events, stratified_split
from suggestgate import synth
from suggestgate.errors import InvalidConfig
from suggestgate.evaluation import roc_auc
from suggestgate.model import fit_logistic, fit_tree_ensemble, predict_proba_batch, split_to_arrays
from suggestgate.synth import (
    SynthConfig,
    _draw,
    _stream,
    ground_truth_scores,
    synth_sessions,
    write_synth_outputs,
    xor_variant_config,
)
from suggestgate.telemetry import TelemetryEvent, TelemetryKind, read_jsonl, write_jsonl

SMALL_CONFIGS = pytest.mark.parametrize(
    "config",
    [SynthConfig(n_sessions=8, seed=3), xor_variant_config(seed=5, n_sessions=8)],
    ids=["logistic-truth", "xor-truth"],
)


class TestOutputs:
    def test_round_trip(self, tmp_path):
        result = synth_sessions(SynthConfig(n_sessions=2, mean_session_minutes=6))
        events, records = tmp_path / "e.jsonl", tmp_path / "r.jsonl"
        write_synth_outputs(result, events, records)
        assert result.records
        assert [TelemetryEvent.from_json_dict(o) for o in read_jsonl(events)] == result.events
        assert [SuggestionRecord.from_json_dict(o) for o in read_jsonl(records)] == result.records

    def test_events_file_rebuilds_the_records_file(self, tmp_path):
        # The log carries every outcome: the records come from it alone.
        events, records, rebuilt = (tmp_path / n for n in ("e.jsonl", "r.jsonl", "rebuilt.jsonl"))
        write_synth_outputs(synth_sessions(SynthConfig(n_sessions=8, seed=1)), events, records)
        rebuilt_records, unresolved = records_from_events(
            TelemetryEvent.from_json_dict(o) for o in read_jsonl(events)
        )
        write_jsonl((record.to_json_dict() for record in rebuilt_records), rebuilt)
        assert unresolved == []
        assert rebuilt.read_bytes() == records.read_bytes()


def _accepted_ids(log) -> set:
    return {e.payload["suggestion_id"] for e in log if e.kind is TelemetryKind.SUGGESTION_ACCEPTED}


class TestGroundTruth:
    @SMALL_CONFIGS
    def test_each_label_is_its_draw_below_the_oracle_score(self, config):
        # Ties the truth to the record's own vector: the stream drew each
        # outcome from the vector that the log rebuilds.
        result = synth_sessions(config)
        requests = _draw(config)[1]
        draws = [requests[e.payload["suggestion_id"]][0] for e in result.events
                 if e.kind is TelemetryKind.SUGGESTION_REQUESTED]
        oracle = ground_truth_scores(config, result.records, result.bias)
        assert len(result.records) == len(draws)
        assert [r.y for r in result.records] == [int(d < p) for d, p in zip(draws, oracle)]

    @SMALL_CONFIGS
    def test_two_runs_write_identical_files(self, config, tmp_path):
        runs = [[tmp_path / f"{run}-{name}.jsonl" for name in ("e", "r")] for run in "ab"]
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
        # Bisection on the bias needs the accepted set to grow with it. Apart
        # from the SuggestionAccepted events, every pass logs the same events.
        config = SynthConfig(n_sessions=30, seed=3)
        draw = _draw(config)
        logs = [_stream(config, draw, bias)[0] for bias in (-4.0, -3.0, -2.5, -2.0, -1.0)]
        shared = [[e for e in log if e.kind is not TelemetryKind.SUGGESTION_ACCEPTED] for log in logs]
        accepted = [_accepted_ids(log) for log in logs]
        for lower, higher in zip(shared, shared[1:]):
            assert lower == higher
        for lower, higher in zip(accepted, accepted[1:]):
            assert lower < higher
