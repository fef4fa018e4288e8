"""Synthetic developer sessions with a known acceptance ground truth.

A two-state hidden process (flow vs. exploratory) drives per-minute
behaviour. Each request's true acceptance logit comes from that draw, not
from the package's features: the minute's latent state, the request's true
complexity weighted by state, one affinity per session and the session's own
earlier outcomes. The features only observe the behaviour, so every
downstream number has an oracle that the pipeline under test does not
compute. Behaviour is drawn once; the intercept is bisected over passes of
the requests until the realized acceptance rate is within 0.002 of the
configured base rate (0.1785-0.1819 for 0.18 at 100 sessions, seeds 0-9). The
chosen pass is logged as events once, and the log is the whole output: its
records come from ``dataset.records_from_events``, as any log's do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig
from .model import _sigmoid
from .telemetry import TelemetryEvent, TelemetryKind

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


#: The true acceptance logit, before the bisected intercept, is the state's
#: offset, plus the state's weight times (complexity - COMPLEXITY_CENTRE), a
#: state x complexity interaction, plus the session's N(0, AFFINITY_SD)
#: affinity, plus FEEDBACK_WEIGHT times the session's share of earlier
#: requests accepted less the base rate.
STATE_LOGIT = {FLOW: 0.5, EXPLORATORY: -0.5}
COMPLEXITY_WEIGHT = {FLOW: -1.0, EXPLORATORY: -5.0}
COMPLEXITY_CENTRE = 0.37
AFFINITY_SD = 0.5
FEEDBACK_WEIGHT = 1.5


@dataclass(frozen=True)
class SynthConfig:
    n_sessions: int = 25
    mean_session_minutes: float = 20.0
    requests_per_minute: float = 1.0
    base_acceptance: float = 0.18
    seed: int = 0

    def validate(self) -> None:
        if self.n_sessions < 1:
            raise InvalidConfig("n_sessions must be >= 1")
        if self.mean_session_minutes < 1:
            raise InvalidConfig("mean_session_minutes must be >= 1")
        if not 0.0 < self.base_acceptance < 1.0:
            raise InvalidConfig("base_acceptance must lie in (0, 1)")
        if self.requests_per_minute <= 0:
            raise InvalidConfig("requests_per_minute must be positive")


@dataclass
class SynthResult:
    events: list[TelemetryEvent]
    p_true: np.ndarray  # each request's true acceptance probability, in log order
    bias: float


_START_EPOCH_MS = 1_700_000_000_000  # session s starts 9 s after session s - 1

_Request = tuple[TelemetryEvent, float, float]  # SuggestionRequested, outcome uniform, latent logit


def _draw(config: SynthConfig) -> tuple[list[TelemetryEvent], list[_Request]]:
    """All behavioural randomness, outcome uniforms included: the events
    sorted by timestamp (ties in emission order) and the requests among
    them in that order, each with its outcome uniform and its latent logit
    term (state, complexity and affinity)."""
    rng = np.random.default_rng(config.seed)
    state_names = sorted(DEFAULT_STATES)
    events: list[TelemetryEvent] = []
    truth: dict[str, tuple[float, float]] = {}

    def emit(session: str, t: int, kind: TelemetryKind, payload: dict) -> None:
        events.append(TelemetryEvent(session, int(t), kind, payload))

    for s in range(config.n_sessions):
        session = f"synth-{s:04d}"
        session_start = _START_EPOCH_MS + s * 9_000
        minutes = max(3, int(rng.normal(config.mean_session_minutes,
                                        config.mean_session_minutes / 4)))
        state = state_names[int(rng.integers(0, len(state_names)))]
        affinity = float(rng.normal(0.0, AFFINITY_SD))
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
                sid = f"{session}-r{len(truth):05d}"
                emit(session, t, TelemetryKind.SUGGESTION_REQUESTED, {
                    "suggestion_id": sid,
                    "task_complexity": round(complexity, 6),
                    "prompt_length": int(rng.integers(20, 800)),
                })
                latent = (STATE_LOGIT[state] + affinity
                          + COMPLEXITY_WEIGHT[state] * (complexity - COMPLEXITY_CENTRE))
                truth[sid] = float(rng.random()), latent
        # An idle tail: 30 s without interaction resolves the last suggestion.
        emit(session, session_start + minutes * 60_000 + 30_000, TelemetryKind.PAUSE, {})

    events.sort(key=lambda event: event.timestamp)
    return events, [(event, *truth[event.payload["suggestion_id"]]) for event in events
                    if event.kind is TelemetryKind.SUGGESTION_REQUESTED]


def _outcomes(requests: list[_Request], base: float, bias: float) -> tuple[list[float], list[bool]]:
    """Each request's true probability and outcome at intercept ``bias``.

    The logit is ``bias``, the request's latent term and the feedback term:
    FEEDBACK_WEIGHT times the session's share of earlier requests accepted
    less ``base`` (0 at a session's first request). Every request is shown,
    so with the uniforms fixed a higher ``bias`` only adds accepts, and each
    added accept only raises the later shares of its session.
    """
    tallies: dict[str, list[int]] = {}  # session -> [requests, accepts] so far
    p_true: list[float] = []
    accepted: list[bool] = []
    for event, uniform, latent in requests:
        tally = tallies.setdefault(event.session_id, [0, 0])
        feedback = FEEDBACK_WEIGHT * (tally[1] / tally[0] - base) if tally[0] else 0.0
        p = float(_sigmoid(bias + latent + feedback))
        hit = uniform < p
        tally[0] += 1
        tally[1] += hit
        p_true.append(p)
        accepted.append(hit)
    return p_true, accepted


_RATE_TOLERANCE = 0.002
_MAX_PASSES = 24


def synth_sessions(config: SynthConfig) -> SynthResult:
    """Generate telemetry with every outcome logged.

    Deterministic given the config seed (byte-identical logs). Behaviour is
    drawn once, then the intercept is bisected over passes of ``_outcomes``
    until the realized acceptance rate is within 0.002 of
    ``base_acceptance``. The bracket is the base rate's logit +- the largest
    latent term plus FEEDBACK_WEIGHT. One accept's feedback can make the
    rate jump past the tolerance; after 24 passes, which narrow the bracket
    2**23-fold, the pass closest to the base rate is kept. Its outcomes are
    logged once: each request is followed by its SuggestionShown and, on
    accept, its SuggestionAccepted, both at the request's timestamp. Every
    request is shown and resolves, so ``p_true``, one per request in log
    order, is also in the order of ``records_from_events(result.events)``.
    """
    config.validate()
    events, requests = _draw(config)
    if not requests:
        raise InvalidConfig("config generated no suggestion requests")
    target = config.base_acceptance
    span = max(abs(latent) for _, _, latent in requests) + FEEDBACK_WEIGHT
    centre = math.log(target / (1.0 - target))
    lo, hi = centre - span, centre + span
    best = None
    for _ in range(_MAX_PASSES):
        bias = 0.5 * (lo + hi)
        p_true, accepted = _outcomes(requests, target, bias)
        rate = sum(accepted) / len(requests)
        if best is None or abs(rate - target) < abs(best[0] - target):
            best = rate, bias, p_true, accepted
        if abs(rate - target) <= _RATE_TOLERANCE:
            break
        if rate < target:
            lo = bias
        else:
            hi = bias
    _, bias, p_true, accepted = best
    log: list[TelemetryEvent] = []
    outcomes = iter(accepted)
    for event in events:
        log.append(event)
        if event.kind is TelemetryKind.SUGGESTION_REQUESTED:
            sid = event.payload["suggestion_id"]
            log.append(replace(event, kind=TelemetryKind.SUGGESTION_SHOWN,
                               payload={"suggestion_id": sid}))
            if next(outcomes):
                log.append(replace(event, kind=TelemetryKind.SUGGESTION_ACCEPTED,
                                   payload={"suggestion_id": sid}))
    return SynthResult(events=log, p_true=np.array(p_true), bias=bias)
