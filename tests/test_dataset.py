from __future__ import annotations

import random

import pytest

from suggestgate.dataset import SuggestionRecord, class_weights, stratified_split
from suggestgate.errors import SchemaError, SingleClass, TooFewRecords
from suggestgate.features import N_FEATURES
from suggestgate.telemetry import read_jsonl, write_jsonl


def make_records(n_pos: int, n_neg: int, sessions: int = 8) -> list[SuggestionRecord]:
    rng = random.Random(7)
    records = []
    for i in range(n_pos + n_neg):
        records.append(
            SuggestionRecord(
                x=tuple(rng.random() for _ in range(N_FEATURES)),
                y=1 if i < n_pos else 0,
                timestamp=i * 1000,
                session_id=f"s{i % sessions}",
                prompt_length=rng.randrange(500),
                suggestion_chars=rng.randrange(300),
                decision_latency_ms=rng.randrange(10_000),
            )
        )
    return records


class TestSuggestionRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuggestionRecord(x=(0.0,) * N_FEATURES, y=2, timestamp=0, session_id="s")
        with pytest.raises(ValueError):
            SuggestionRecord(x=(0.0,) * 3, y=1, timestamp=0, session_id="s")

    def test_jsonl_round_trip(self, tmp_path):
        records = make_records(4, 16)
        path = tmp_path / "records.jsonl"
        write_jsonl((r.to_json_dict() for r in records), path)
        assert [SuggestionRecord.from_json_dict(o) for o in read_jsonl(path)] == records

    def test_bad_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": [1, 2], "y": 1}\n')
        with pytest.raises(SchemaError):
            [SuggestionRecord.from_json_dict(o) for o in read_jsonl(path)]


class TestStratifiedSplit:
    def test_study_scale_sizes(self):
        # 2318 records at (0.64, 0.16, 0.20) must give the held-out test
        # size of 464.
        records = make_records(426, 1892)
        split = stratified_split(records, seed=13)
        assert (len(split.train), len(split.validation), len(split.test)) == (
            1483, 371, 464,
        )

    def test_partition(self):
        records = make_records(40, 160)
        split = stratified_split(records, seed=3)
        all_indices = sorted(
            split.indices["train"] + split.indices["validation"] + split.indices["test"]
        )
        assert all_indices == list(range(len(records)))

    def test_stratification_within_one_record(self):
        records = make_records(426, 1892)
        split = stratified_split(records, seed=5)
        global_rate = 426 / 2318
        for part in (split.train, split.validation, split.test):
            positives = sum(r.y for r in part)
            assert abs(positives - global_rate * len(part)) <= 1.0

    def test_divisible_case_exact(self):
        records = make_records(5, 5)
        split = stratified_split(records, fractions=(0.6, 0.2, 0.2), seed=0)
        for part in (split.train, split.validation, split.test):
            assert sum(r.y for r in part) / len(part) == 0.5

    def test_deterministic_given_seed(self):
        records = make_records(30, 120)
        a = stratified_split(records, seed=42)
        b = stratified_split(records, seed=42)
        assert a.indices == b.indices

    def test_different_seeds_same_sizes(self):
        records = make_records(30, 121)
        a = stratified_split(records, seed=1)
        b = stratified_split(records, seed=2)
        assert a.indices != b.indices
        for name in ("train", "validation", "test"):
            assert len(a.indices[name]) == len(b.indices[name])
            pos_a = sum(records[i].y for i in a.indices[name])
            pos_b = sum(records[i].y for i in b.indices[name])
            assert pos_a == pos_b  # stratification is size-exact per class

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            stratified_split(make_records(3, 50), seed=0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            stratified_split(make_records(10, 10), fractions=(0.5, 0.5, 0.5), seed=0)

    def test_manifest_shape(self):
        records = make_records(10, 40)
        split = stratified_split(records, seed=9)
        manifest = split.manifest()
        assert manifest["seed"] == 9
        assert manifest["fractions"] == [0.64, 0.16, 0.20]
        assert len(manifest["test"]) == len(split.test)

    def test_session_grouped_mode_keeps_sessions_whole(self):
        records = make_records(40, 160, sessions=12)
        split = stratified_split(records, seed=4, group_by_session=True)
        owner = {}
        for name in ("train", "validation", "test"):
            for i in split.indices[name]:
                session = records[i].session_id
                assert owner.setdefault(session, name) == name
        total = sum(len(split.indices[n]) for n in ("train", "validation", "test"))
        assert total == len(records)


class TestClassWeights:
    def test_study_scale_weights(self):
        records = make_records(426, 1892)
        w0, w1 = class_weights(records)
        assert w1 == pytest.approx(2318 / (2 * 426), rel=1e-12)
        assert w0 == pytest.approx(2318 / (2 * 1892), rel=1e-12)
        assert w1 == pytest.approx(2.72, abs=0.005)
        assert w0 == pytest.approx(0.613, abs=0.001)

    def test_balanced_data(self):
        assert class_weights(make_records(20, 20)) == (1.0, 1.0)

    def test_ratio_identity(self):
        for n_pos, n_neg in [(5, 45), (13, 29), (100, 100)]:
            w0, w1 = class_weights(make_records(n_pos, n_neg))
            assert w1 / w0 == pytest.approx(n_neg / n_pos, rel=1e-12)
            # Weighted totals recover n.
            assert w0 * n_neg + w1 * n_pos == pytest.approx(n_pos + n_neg, rel=1e-12)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            class_weights(make_records(0, 30))
