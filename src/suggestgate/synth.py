"""Synthetic developer sessions with a known acceptance ground truth.

A two-state hidden process (flow vs. exploratory) drives per-minute window
features; every suggestion request samples its outcome from a logistic
function of the request's true feature vector, so every downstream number
has an oracle. Behaviour is drawn once; the real telemetry/feature pipeline
then streams it, logging each outcome as events, and the intercept is
bisected over those stream passes until the realized acceptance rate is
within 0.002 of the configured base rate (0.178-0.181 for 0.18 at 100
sessions, seeds 0-9). The records come from the chosen pass's log alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SuggestionRecord, records_from_events
from .errors import InvalidConfig
from .features import FEATURE_NAMES, build_feature_vector
from .model import _sigmoid
from .telemetry import SessionState, TelemetryEvent, TelemetryKind, ingest_event, write_jsonl

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
    ground_truth: tuple[GroundTruthTerm, ...] = DEFAULT_GROUND_TRUTH
    #: Non-linear term: +boost when exactly one of (high efficiency, high
    #: pause rate) holds, -boost otherwise. Zero keeps the truth logistic.
    interaction_boost: float = 0.0

    def validate(self) -> None:
        if self.n_sessions < 1:
            raise InvalidConfig("n_sessions must be >= 1")
        if self.mean_session_minutes < 1:
            raise InvalidConfig("mean_session_minutes must be >= 1")
        if not 0.0 < self.base_acceptance < 1.0:
            raise InvalidConfig("base_acceptance must lie in (0, 1)")
        if self.requests_per_minute <= 0:
            raise InvalidConfig("requests_per_minute must be positive")


def xor_variant_config(seed: int = 0, **overrides) -> SynthConfig:
    """Config whose truth is dominated by a non-linear interaction.

    Linear weight on the two interacting signals is removed, so a linear
    model sees only what the interaction leaks into single features. At 60
    sessions (seeds 0-5) a fitted logistic model reaches a test ROC-AUC of
    0.58-0.67, against 0.62-0.72 for the true probabilities.
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
    records: list[SuggestionRecord]
    bias: float
    realized_acceptance: float
    config: SynthConfig


_EFF_SPLIT = 4.5
_PAUSE_SPLIT = 0.6
_START_EPOCH_MS = 1_700_000_000_000  # session s starts 9 s after session s - 1


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


def _draw(config: SynthConfig) -> tuple[list[TelemetryEvent], dict[str, tuple[float, dict]]]:
    """All behavioural randomness, outcome uniforms included: the events
    sorted by timestamp (ties in emission order) and, per request id, its
    outcome uniform and the payload of its SuggestionShown."""
    rng = np.random.default_rng(config.seed)
    state_names = sorted(DEFAULT_STATES)
    events: list[TelemetryEvent] = []
    requests: dict[str, tuple[float, dict]] = {}

    def emit(session: str, t: int, kind: TelemetryKind, payload: dict) -> None:
        events.append(TelemetryEvent(session, int(t), kind, payload))

    for s in range(config.n_sessions):
        session = f"synth-{s:04d}"
        session_start = _START_EPOCH_MS + s * 9_000
        minutes = max(3, int(rng.normal(config.mean_session_minutes,
                                        config.mean_session_minutes / 4)))
        state = state_names[int(rng.integers(0, len(state_names)))]
        for minute in range(minutes):
            row = DEFAULT_TRANSITION[state]
            u = rng.random()
            cumulative = 0.0
            for name in state_names:
                cumulative += row[name]
                if u < cumulative:
                    state = name
                    break
            profile = DEFAULT_STATES[state]
            minute_start = session_start + minute * 60_000

            def offset() -> int:
                return minute_start + int(rng.integers(0, 60_000))

            typing_s = min(max(
                rng.normal(profile.typing_seconds, profile.typing_seconds * 0.35), 0.0,
            ), 55.0)
            n_bursts = int(1 + rng.poisson(profile.bursts_per_min)) if typing_s > 0.5 else 0
            for _ in range(n_bursts):
                burst_s = typing_s / n_bursts
                chars = int(rng.poisson(max(profile.chars_per_second * burst_s, 0.01)))
                emit(session, offset(), TelemetryKind.TYPING_BURST,
                     {"chars_typed": chars, "duration_ms": int(burst_s * 1000)})
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
                complexity = min(max(rng.normal(profile.complexity_mean, 0.12), 0.0), 1.0)
                sid = f"{session}-r{len(requests):05d}"
                payload = {
                    "suggestion_id": sid,
                    "task_complexity": round(complexity, 6),
                    "prompt_length": int(rng.integers(20, 800)),
                }
                emit(session, t, TelemetryKind.SUGGESTION_REQUESTED, payload)
                requests[sid] = (float(rng.random()), {
                    "suggestion_id": sid,
                    "suggestion_chars": int(rng.integers(10, 400)),
                    "decision_latency_ms": int(rng.integers(300, 12_000)),
                })
        # An idle tail: 30 s without interaction resolves the last suggestion.
        emit(session, session_start + minutes * 60_000 + 30_000, TelemetryKind.PAUSE, {})

    events.sort(key=lambda event: event.timestamp)
    return events, requests


def _stream(config: SynthConfig, draw, bias: float) -> tuple[list[TelemetryEvent], int]:
    """Stream a draw through ingest and features and log each outcome as events.

    Each request is followed by its SuggestionShown and, if the outcome drawn
    from the true logit at ``bias`` is an accept, its SuggestionAccepted, both
    at the request's timestamp. Returns the log and its accepted count.
    """
    events, requests = draw
    states: dict[str, SessionState] = {}
    log: list[TelemetryEvent] = []
    accepted_total = 0
    for event in events:
        state = states.setdefault(event.session_id, SessionState(event.session_id))
        logged = [event]
        if event.kind is TelemetryKind.SUGGESTION_REQUESTED:
            outcome_draw, shown = requests[event.payload["suggestion_id"]]
            fv = build_feature_vector(state, event.payload["task_complexity"], at=event.timestamp)
            logged.append(replace(event, kind=TelemetryKind.SUGGESTION_SHOWN, payload=shown))
            if outcome_draw < float(_sigmoid(_true_logit(config, fv.as_dict(), bias))):
                accepted_total += 1
                logged.append(replace(event, kind=TelemetryKind.SUGGESTION_ACCEPTED,
                                      payload={"suggestion_id": shown["suggestion_id"]}))
        for entry in logged:
            ingest_event(state, entry)
        log.extend(logged)
    return log, accepted_total


_RATE_TOLERANCE = 0.002
_MAX_PASSES = 24


def synth_sessions(config: SynthConfig) -> SynthResult:
    """Generate telemetry with every outcome logged, and its training records.

    Deterministic given the config seed (byte-identical logs). Behaviour is
    drawn once, then the intercept is bisected over stream passes of that
    draw until the realized acceptance rate is within 0.002 of
    ``base_acceptance``: with the outcome uniforms fixed, a higher intercept
    only adds accepts. The bracket is the base rate's logit +- the most the
    truth's terms can add. At a few sessions an accept feeds back
    (``acceptance_ratio``) and the rate can jump past the tolerance; after 24
    passes, which narrow the bracket 2**23-fold, the pass closest to the base
    rate is kept. Its log becomes the records through
    ``records_from_events``, as any event log does.
    """
    config.validate()
    draw = _draw(config)
    if not draw[1]:
        raise InvalidConfig("config generated no suggestion requests")
    target = config.base_acceptance
    span = sum(abs(term.weight) for term in config.ground_truth) + abs(config.interaction_boost)
    centre = math.log(target / (1.0 - target))
    lo, hi = centre - span, centre + span
    best = None
    for _ in range(_MAX_PASSES):
        bias = 0.5 * (lo + hi)
        log, accepted = _stream(config, draw, bias)
        rate = accepted / len(draw[1])
        if best is None or abs(rate - target) < abs(best[0] - target):
            best = rate, bias, log
        if abs(rate - target) <= _RATE_TOLERANCE:
            break
        if rate < target:
            lo = bias
        else:
            hi = bias
    rate, bias, log = best
    records, _ = records_from_events(log)
    return SynthResult(events=log, records=records, bias=bias, realized_acceptance=rate,
                       config=config)


def ground_truth_scores(config: SynthConfig, records, bias: float) -> np.ndarray:
    """Oracle scorer: the true acceptance probability of each record."""
    return _sigmoid(np.array([
        _true_logit(config, dict(zip(FEATURE_NAMES, r.x)), bias) for r in records
    ]))


def write_synth_outputs(result: SynthResult, events_path, records_path) -> None:
    write_jsonl((event.to_json_dict() for event in result.events), events_path)
    write_jsonl((record.to_json_dict() for record in result.records), records_path)
