"""Synthetic developer sessions with a known acceptance ground truth.

A two-state hidden process (flow vs. exploratory) drives per-minute window
features; every suggestion request samples its outcome from a logistic
function of the request's true feature vector, so every downstream number
has an oracle. The generator runs the real telemetry/feature pipeline. Its
intercept is re-solved on each of three passes so that the mean true
probability of the previous pass's requests equals the configured base rate.
Outcomes feed back into the features (``acceptance_ratio``), so the realized
rate can miss the target widely: a base rate of 0.18 gives 0.101 at 100
sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import SuggestionRecord
from .errors import InvalidConfig, SchemaError
from .features import FEATURE_NAMES, build_feature_vector
from .model import _sigmoid
from .telemetry import (
    SessionState,
    TelemetryEvent,
    TelemetryKind,
    ingest_event,
    read_jsonl,
    record_outcome,
    write_jsonl,
)

FLOW = "flow"
EXPLORATORY = "exploratory"


@dataclass(frozen=True)
class StateProfile:
    """Per-minute feature distributions for one latent state."""

    typing_seconds: float
    chars_per_second: float
    bursts_per_min: float
    pauses_per_min: float
    nav_per_min: float
    undo_per_min: float
    quick_fix_per_min: float
    terminal_per_min: float
    palette_per_min: float
    diagnostic_prob: float
    warnings_mean: float
    errors_mean: float
    breakpoints_mean: float
    lines_added_per_min: float
    file_lines_mean: float
    open_files_mean: float
    complexity_mean: float


@dataclass(frozen=True)
class GroundTruthTerm:
    """One additive term of the true acceptance logit: w * (x - c) / s."""

    feature: str
    weight: float
    center: float
    scale: float


DEFAULT_STATES = {
    FLOW: StateProfile(
        typing_seconds=38.0,
        chars_per_second=7.5,
        bursts_per_min=5.0,
        pauses_per_min=1.0,
        nav_per_min=0.5,
        undo_per_min=0.3,
        quick_fix_per_min=0.1,
        terminal_per_min=0.1,
        palette_per_min=0.2,
        diagnostic_prob=0.3,
        warnings_mean=0.6,
        errors_mean=0.2,
        breakpoints_mean=0.1,
        lines_added_per_min=6.0,
        file_lines_mean=260.0,
        open_files_mean=3.0,
        complexity_mean=0.25,
    ),
    EXPLORATORY: StateProfile(
        typing_seconds=10.0,
        chars_per_second=3.0,
        bursts_per_min=2.0,
        pauses_per_min=7.0,
        nav_per_min=3.0,
        undo_per_min=1.2,
        quick_fix_per_min=0.9,
        terminal_per_min=0.5,
        palette_per_min=0.8,
        diagnostic_prob=0.7,
        warnings_mean=2.2,
        errors_mean=1.1,
        breakpoints_mean=0.6,
        lines_added_per_min=1.5,
        file_lines_mean=420.0,
        open_files_mean=6.0,
        complexity_mean=0.5,
    ),
}

DEFAULT_TRANSITION = {
    FLOW: {FLOW: 0.82, EXPLORATORY: 0.18},
    EXPLORATORY: {FLOW: 0.25, EXPLORATORY: 0.75},
}

DEFAULT_GROUND_TRUTH = (
    GroundTruthTerm("acceptance_ratio", 1.7, 0.18, 0.25),
    GroundTruthTerm("typing_efficiency", -1.5, 5.0, 2.6),
    GroundTruthTerm("pause_frequency", 1.3, 0.30, 0.35),
    GroundTruthTerm("quick_fix_count", -0.9, 0.5, 0.8),
    GroundTruthTerm("warnings", -0.8, 1.4, 1.4),
    GroundTruthTerm("errors", -0.9, 0.65, 0.9),
    GroundTruthTerm("task_complexity", -1.1, 0.37, 0.17),
    GroundTruthTerm("edit_density", 0.6, 0.02, 0.03),
    GroundTruthTerm("context_stale", 0.7, 0.1, 1.0),
)


@dataclass(frozen=True)
class SynthConfig:
    n_sessions: int = 25
    mean_session_minutes: float = 20.0
    requests_per_minute: float = 1.0
    base_acceptance: float = 0.18
    seed: int = 0
    transition: dict = field(default_factory=lambda: {
        s: dict(row) for s, row in DEFAULT_TRANSITION.items()
    })
    states: dict = field(default_factory=lambda: dict(DEFAULT_STATES))
    ground_truth: tuple[GroundTruthTerm, ...] = DEFAULT_GROUND_TRUTH
    #: Non-linear term: +boost when exactly one of (high efficiency, high
    #: pause rate) holds, -boost otherwise. Zero keeps the truth logistic.
    interaction_boost: float = 0.0
    start_epoch_ms: int = 1_700_000_000_000

    def validate(self) -> None:
        if self.n_sessions < 1:
            raise InvalidConfig("n_sessions must be >= 1")
        if self.mean_session_minutes < 1:
            raise InvalidConfig("mean_session_minutes must be >= 1")
        if not 0.0 < self.base_acceptance < 1.0:
            raise InvalidConfig("base_acceptance must lie in (0, 1)")
        if self.requests_per_minute <= 0:
            raise InvalidConfig("requests_per_minute must be positive")
        names = set(self.states)
        if set(self.transition) != names:
            raise InvalidConfig("transition matrix states do not match profiles")
        for state, row in self.transition.items():
            if set(row) != names:
                raise InvalidConfig(f"transition row {state!r} misses states")
            if any(not 0.0 <= p <= 1.0 for p in row.values()):
                raise InvalidConfig(f"transition row {state!r} has probability outside [0, 1]")
            if abs(sum(row.values()) - 1.0) > 1e-9:
                raise InvalidConfig(f"transition row {state!r} does not sum to 1")


def xor_variant_config(seed: int = 0, **overrides) -> SynthConfig:
    """Config whose truth is dominated by a non-linear interaction.

    Linear weight on the two interacting signals is removed, so a linear
    model sees only what the interaction leaks into single features. At 60
    sessions (seeds 0-5) a fitted logistic model reaches a test ROC-AUC of
    0.57-0.69, against 0.64-0.72 for the true probabilities.
    """
    ground_truth = (
        GroundTruthTerm("acceptance_ratio", 0.25, 0.18, 0.25),
    )
    return SynthConfig(
        seed=seed,
        ground_truth=ground_truth,
        interaction_boost=1.6,
        **overrides,
    )


@dataclass
class SynthResult:
    events: list[TelemetryEvent]
    labels: list[dict]
    records: list[SuggestionRecord]
    bias: float
    realized_acceptance: float
    config: SynthConfig


_EFF_SPLIT = 4.5
_PAUSE_SPLIT = 0.6


def _true_logit(config: SynthConfig, values: dict[str, float], bias: float) -> float:
    # tanh bounds each term at +-weight: the epsilon-guarded ratios can
    # reach 1e6 when a window lacks a denominator event, and an unbounded
    # term would make the truth degenerate.
    z = bias
    for term in config.ground_truth:
        z += term.weight * math.tanh((values[term.feature] - term.center) / term.scale)
    if config.interaction_boost:
        high_eff = values["typing_efficiency"] > _EFF_SPLIT
        high_pause = values["pause_frequency"] > _PAUSE_SPLIT
        z += config.interaction_boost * (1.0 if high_eff != high_pause else -1.0)
    return z


def _generate(config: SynthConfig, bias: float) -> SynthResult:
    """One full generation pass at a fixed intercept.

    All behavioral randomness is drawn identically regardless of ``bias``:
    each request consumes exactly one extra uniform for its outcome, so
    calibration passes see the same telemetry stream.
    """
    rng = np.random.default_rng(config.seed)
    state_names = sorted(config.states)
    events: list[tuple[int, int, TelemetryEvent]] = []
    requests: list[dict] = []
    seq = 0

    def emit(session: str, t: int, kind: TelemetryKind, payload: dict) -> None:
        nonlocal seq
        events.append((t, seq, TelemetryEvent(session, int(t), kind, payload)))
        seq += 1

    for s in range(config.n_sessions):
        session = f"synth-{s:04d}"
        session_start = config.start_epoch_ms + s * 9_000
        minutes = max(3, int(rng.normal(config.mean_session_minutes,
                                        config.mean_session_minutes / 4)))
        state = state_names[int(rng.integers(0, len(state_names)))]
        for minute in range(minutes):
            row = config.transition[state]
            u = rng.random()
            cumulative = 0.0
            for name in state_names:
                cumulative += row[name]
                if u < cumulative:
                    state = name
                    break
            profile = config.states[state]
            minute_start = session_start + minute * 60_000

            def offset() -> int:
                return minute_start + int(rng.integers(0, 60_000))

            typing_s = float(np.clip(
                rng.normal(profile.typing_seconds, profile.typing_seconds * 0.35),
                0.0, 55.0,
            ))
            n_bursts = int(1 + rng.poisson(profile.bursts_per_min)) if typing_s > 0.5 else 0
            for _ in range(n_bursts):
                duration_s = typing_s / n_bursts
                chars = int(rng.poisson(max(profile.chars_per_second * duration_s, 0.01)))
                emit(session, offset(), TelemetryKind.TYPING_BURST,
                     {"chars_typed": chars, "duration_ms": int(duration_s * 1000)})
            for _ in range(int(rng.poisson(profile.pauses_per_min))):
                emit(session, offset(), TelemetryKind.PAUSE, {})
            for _ in range(int(rng.poisson(profile.nav_per_min))):
                emit(session, offset(), TelemetryKind.FILE_NAV, {
                    "open_files": int(1 + rng.poisson(profile.open_files_mean)),
                    "file_lines": int(max(20.0, rng.normal(profile.file_lines_mean,
                                                           profile.file_lines_mean * 0.3))),
                })
            for command, rate in (
                ("Undo", profile.undo_per_min),
                ("QuickFix", profile.quick_fix_per_min),
                ("TerminalToggle", profile.terminal_per_min),
                ("PaletteAction", profile.palette_per_min),
            ):
                for _ in range(int(rng.poisson(rate))):
                    emit(session, offset(), TelemetryKind.COMMAND_USE, {"command": command})
            if rng.random() < profile.diagnostic_prob:
                emit(session, offset(), TelemetryKind.DIAGNOSTIC, {
                    "warnings": int(rng.poisson(profile.warnings_mean)),
                    "errors": int(rng.poisson(profile.errors_mean)),
                    "breakpoints": int(rng.poisson(profile.breakpoints_mean)),
                })
            lines = int(rng.poisson(profile.lines_added_per_min))
            if lines > 0:
                emit(session, offset(), TelemetryKind.EDIT_APPLIED, {"lines_added": lines})
            for _ in range(int(rng.poisson(config.requests_per_minute))):
                t = offset()
                complexity = float(np.clip(rng.normal(profile.complexity_mean, 0.12), 0.0, 1.0))
                sid = f"{session}-r{len(requests):05d}"
                payload = {
                    "suggestion_id": sid,
                    "task_complexity": round(complexity, 6),
                    "prompt_length": int(rng.integers(20, 800)),
                }
                emit(session, t, TelemetryKind.SUGGESTION_REQUESTED, payload)
                requests.append({
                    "suggestion_id": sid,
                    "session_id": session,
                    "outcome_draw": float(rng.random()),
                    "suggestion_chars": int(rng.integers(10, 400)),
                    "decision_latency_ms": int(rng.integers(300, 12_000)),
                })

    events.sort(key=lambda item: (item[0], item[1]))

    # Stream the events through the real pipeline, sampling outcomes at
    # each request from the true logit.
    states: dict[str, SessionState] = {}
    request_meta = {r["suggestion_id"]: r for r in requests}
    labels: list[dict] = []
    records: list[SuggestionRecord] = []
    accepted_total = 0
    for _, _, event in events:
        state = states.get(event.session_id)
        if state is None:
            state = states[event.session_id] = SessionState(event.session_id)
        if event.kind is TelemetryKind.SUGGESTION_REQUESTED:
            meta = request_meta[event.payload["suggestion_id"]]
            complexity = float(event.payload["task_complexity"])
            fv = build_feature_vector(state, complexity, at=event.timestamp)
            p_true = float(_sigmoid(_true_logit(config, fv.as_dict(), bias)))
            accepted = meta["outcome_draw"] < p_true
            accepted_total += int(accepted)
            ingest_event(state, event)
            record_outcome(state, accepted)
            labels.append({
                "suggestion_id": meta["suggestion_id"],
                "session_id": event.session_id,
                "timestamp": event.timestamp,
                "accepted": bool(accepted),
                "p_true": p_true,
            })
            records.append(SuggestionRecord(
                x=fv.values,
                y=int(accepted),
                timestamp=event.timestamp,
                session_id=event.session_id,
                prompt_length=int(event.payload["prompt_length"]),
                suggestion_chars=meta["suggestion_chars"],
                decision_latency_ms=meta["decision_latency_ms"],
            ))
        else:
            ingest_event(state, event)

    realized = accepted_total / len(labels) if labels else 0.0
    return SynthResult(
        events=[e for _, _, e in events],
        labels=labels,
        records=records,
        bias=bias,
        realized_acceptance=realized,
        config=config,
    )


def _solve_bias(z0_values: list[float], target: float) -> float:
    z0 = np.asarray(z0_values, dtype=float)
    lo, hi = -30.0, 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.mean(_sigmoid(z0 + mid)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def synth_sessions(config: SynthConfig) -> SynthResult:
    """Generate telemetry, ground-truth labels, and training records.

    Deterministic given the config seed (byte-identical logs). The
    intercept comes from three fixed-point rounds, each solving for the
    mean true probability of the previous pass to equal ``base_acceptance``;
    ``realized_acceptance`` reports the rate reached, which can fall well
    short of the target.
    """
    config.validate()
    bias = math.log(config.base_acceptance / (1.0 - config.base_acceptance))
    for _ in range(3):
        pass_result = _generate(config, bias)
        z0 = [
            _true_logit(config, dict(zip(FEATURE_NAMES, r.x)), bias) - bias
            for r in pass_result.records
        ]
        if not z0:
            raise InvalidConfig("config generated no suggestion requests")
        bias = _solve_bias(z0, config.base_acceptance)
    return _generate(config, bias)


def ground_truth_scores(config: SynthConfig, records, bias: float) -> np.ndarray:
    """Oracle scorer: the true acceptance probability of each record."""
    return _sigmoid(np.array([
        _true_logit(config, dict(zip(FEATURE_NAMES, r.x)), bias) for r in records
    ]))


def write_synth_outputs(result: SynthResult, events_path, labels_path, records_path) -> None:
    write_jsonl((event.to_json_dict() for event in result.events), events_path)
    write_jsonl(result.labels, labels_path)
    write_jsonl((record.to_json_dict() for record in result.records), records_path)


def read_labels_jsonl(path) -> dict[str, bool]:
    """suggestion_id -> accepted map from a labels file; SchemaError per bad line."""
    outcomes: dict[str, bool] = {}
    for obj in read_jsonl(path):
        accepted = obj.get("accepted")
        if "suggestion_id" not in obj or not isinstance(accepted, bool):
            raise SchemaError(f"bad label: needs suggestion_id and a boolean accepted, got {obj}")
        outcomes[str(obj["suggestion_id"])] = accepted
    return outcomes
