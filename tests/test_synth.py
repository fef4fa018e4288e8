from __future__ import annotations

import sys

import pytest

from suggestgate.dataset import class_weights, records_from_events, stratified_split
from suggestgate import features, synth
from suggestgate.errors import InvalidConfig
from suggestgate.evaluation import roc_auc
from suggestgate.model import fit_logistic, fit_tree_ensemble, predict_proba_batch, split_to_arrays
from suggestgate.synth import SynthConfig, _draw, _outcomes, synth_sessions
from suggestgate.telemetry import TelemetryKind, read_events, write_events

SMALL_CONFIGS = pytest.mark.parametrize(
    "config",
    [SynthConfig(n_sessions=8, seed=3), SynthConfig(n_sessions=8, seed=5, base_acceptance=0.3)],
    ids=["base-0.18", "base-0.3"],
)


class TestOutputs:
    def test_events_file_round_trip(self, tmp_path):
        result = synth_sessions(SynthConfig(n_sessions=2, mean_session_minutes=6))
        path = tmp_path / "e.jsonl"
        write_events(result.events, path)
        assert list(read_events(path)) == result.events

    def test_events_file_rebuilds_the_records(self, tmp_path):
        # The log carries every outcome: each request becomes a record, one
        # per true probability, and none is left unresolved.
        result = synth_sessions(SynthConfig(n_sessions=8, seed=1))
        write_events(result.events, tmp_path / "e.jsonl")
        rebuilt, unresolved = records_from_events(read_events(tmp_path / "e.jsonl"))
        assert unresolved == []
        assert rebuilt == records_from_events(result.events)[0]
        assert len(rebuilt) == len(result.p_true)

    def test_one_feature_build_per_request(self, monkeypatch):
        # The truth comes from the draw: synth builds no vector, and
        # records_from_events builds one per request, wherever the package
        # binds the builder.
        calls = []
        build = features.build_feature_vector

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("suggestgate")
                    and getattr(module, "build_feature_vector", None) is build):
                monkeypatch.setattr(module, "build_feature_vector", counted)
        result = synth_sessions(SynthConfig(n_sessions=30, seed=3))
        assert calls == []
        records, _ = records_from_events(result.events)
        requests = [e for e in result.events if e.kind is TelemetryKind.SUGGESTION_REQUESTED]
        assert len(calls) == len(requests) == len(records)


class TestGroundTruth:
    @SMALL_CONFIGS
    def test_each_label_is_its_draw_below_the_oracle_score(self, config):
        # Ties each record to its request's own draw: the log rebuilds the
        # outcome that the uniform and the true probability gave.
        result = synth_sessions(config)
        records, _ = records_from_events(result.events)
        requests = _draw(config)[1]
        draws = [uniform for _, uniform, _ in requests]
        assert len(records) == len(draws) == len(result.p_true)
        assert [r.y for r in records] == [int(d < p) for d, p in zip(draws, result.p_true)]
        assert list(result.p_true) == _outcomes(requests, config.base_acceptance, result.bias)[0]

    @SMALL_CONFIGS
    def test_two_runs_write_identical_files(self, config, tmp_path):
        results = [synth_sessions(config) for _ in "ab"]
        for run, result in zip("ab", results):
            write_events(result.events, tmp_path / f"{run}.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert list(results[0].p_true) == list(results[1].p_true)

    def test_oracle_ranks_test_split_at_least_as_well_as_fitted_models(self):
        # 100 sessions give about 400 test records; at 20-60 sessions the
        # test split is small enough that a fitted model can tie or edge past
        # the oracle by chance.
        result = synth_sessions(SynthConfig(n_sessions=100))
        split = stratified_split(records_from_events(result.events)[0])
        weights = class_weights(split.train)
        X_train, y_train = split_to_arrays(split.train)
        X_test, y_test = split_to_arrays(split.test)
        oracle = roc_auc(result.p_true[list(split.indices["test"])], y_test)
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

    def test_no_requests_is_refused_before_any_outcome_pass(self, monkeypatch):
        monkeypatch.setattr(synth, "_outcomes", lambda *args: pytest.fail("passed over requests"))
        with pytest.raises(InvalidConfig, match="no suggestion requests"):
            synth_sessions(SynthConfig(n_sessions=1, requests_per_minute=1e-12))


class TestCalibration:
    @pytest.mark.parametrize("base", [0.18, 0.3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_realized_rate_meets_the_base_rate(self, base, seed):
        result = synth_sessions(SynthConfig(n_sessions=100, seed=seed, base_acceptance=base))
        records, _ = records_from_events(result.events)
        assert abs(sum(r.y for r in records) / len(records) - base) <= 0.002

    def test_a_higher_bias_only_adds_accepts(self):
        # Bisection on the bias needs the accepted set to grow with it.
        config = SynthConfig(n_sessions=30, seed=3)
        requests = _draw(config)[1]
        accepted = [
            {i for i, a in enumerate(_outcomes(requests, config.base_acceptance, bias)[1]) if a}
            for bias in (-4.0, -3.0, -2.5, -2.0, -1.0)
        ]
        for lower, higher in zip(accepted, accepted[1:]):
            assert lower < higher
