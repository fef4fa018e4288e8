"""Seeded inputs for the benchmark: editor event logs and a source corpus.

Everything here is generated by the benchmark itself and shares no code with
``suggestgate.synth``. Each generator also keeps its own tallies of what it
emitted (window sums per session-minute, session totals, decision points per
file), which the checks in ``oracle.py`` hold the program's outputs against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from suggestgate.telemetry import TelemetryEvent, TelemetryKind

MINUTE_MS = 60_000
EPOCH_MS = 1_700_000_040_000  # a whole minute, so session minutes are window buckets

FLOW, EXPLORATORY = 0, 1

#: Probability of staying in the current latent state from one minute to the next.
STAY = {FLOW: 0.99, EXPLORATORY: 0.99}

#: Per-minute behaviour of each latent state: (mean, spread) or rates.
PROFILE = {
    FLOW: dict(typing_s=36.0, cps=7.0, bursts=5.0, pauses=1.0, nav=0.6,
               commands=(0.3, 0.1, 0.1, 0.2, 0.3, 0.3), diag=0.3, warnings=0.5,
               errors=0.2, breakpoints=0.1, lines=6.0, file_lines=260.0,
               open_files=3.0, inline=0.5, complexity=0.3),
    EXPLORATORY: dict(typing_s=11.0, cps=3.0, bursts=2.0, pauses=6.0, nav=2.5,
                      commands=(1.1, 0.8, 0.5, 0.7, 0.4, 0.4), diag=0.7, warnings=2.0,
                      errors=1.0, breakpoints=0.6, lines=1.5, file_lines=420.0,
                      open_files=6.0, inline=0.8, complexity=0.55),
}

COMMANDS = ("Undo", "QuickFix", "TerminalToggle", "PaletteAction", "Copy", "Paste")

#: Window fields the ingest contract sums per minute, and the command each
#: counter field takes (Copy and Paste fall into the generic palette counter).
COMMAND_FIELD = {
    "Undo": "undo_count",
    "QuickFix": "quick_fix_count",
    "TerminalToggle": "terminal_toggles",
    "PaletteAction": "palette_actions",
    "Copy": "palette_actions",
    "Paste": "palette_actions",
}

#: Ground truth: logit of acceptance from the latent state alone.
TRUTH_BIAS = -6.7
TRUTH_EXPLORATORY = 6.6
TRUTH_COMPLEXITY = -3.0
AFFINITY_SD = 0.5

#: A suggestion episode (request, or shown plus its outcome) owns one slot.
SLOTS_PER_MINUTE = 6
SLOT_MS = MINUTE_MS // SLOTS_PER_MINUTE

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


@dataclass
class MinuteTally:
    """What one session emitted in one wall-clock minute."""

    chars_typed: int = 0
    typing_time_s: float = 0.0
    pause_count: int = 0
    nav_events: int = 0
    undo_count: int = 0
    quick_fix_count: int = 0
    terminal_toggles: int = 0
    palette_actions: int = 0
    lines_added: int = 0
    # Gauges: the last value sent, or None when the minute saw no such event.
    file_lines: int | None = None
    open_files: int | None = None
    warnings: int | None = None
    errors: int | None = None
    breakpoints: int | None = None


@dataclass(frozen=True)
class Request:
    """One suggestion request, with what the generator knows about it."""

    event_index: int  # position of its SuggestionRequested event in the log
    session_id: str
    timestamp: int
    p_true: float
    accepted: bool
    complexity: float  # the value the editor reports in the payload
    file_index: int  # corpus file open at the request, for the editor path
    # Tallies at the request, counted after its own event is ingested.
    window_minute: int | None  # latest earlier minute of the session with events
    inline_accepted: int
    inline_rejected: int
    total_chars: int
    total_typing_s: float


@dataclass
class EventLog:
    events: list
    requests: list
    minutes: dict = field(default_factory=dict)  # (session, minute start ms) -> MinuteTally
    idle_gaps: int = 0


def generate_log(seed_seq: np.random.SeedSequence, n_sessions: int, n_files: int) -> EventLog:
    """Interleaved sessions driven by a latent flow/exploratory state.

    Sessions start on whole minutes within the first half hour and overlap in
    time; events are merged into one stream ordered by timestamp, so each
    session's events stay in timestamp order. About a third of the sessions
    go idle for three to five minutes once, which leaves their next request
    without a fresh window.
    """
    rng = np.random.default_rng(seed_seq)
    raw: list[tuple[int, int, TelemetryEvent, dict | None]] = []
    minutes: dict[tuple[str, int], MinuteTally] = {}
    seq = 0
    idle_gaps = 0
    # Stratified session traits: every log holds the same spread of lengths,
    # affinities and idle gaps, dealt to sessions in a seeded order, so the
    # seed changes which session gets what but not the make-up of the log.
    order = rng.permutation(n_sessions)
    lengths = rng.permutation(np.resize(np.arange(8, 17), n_sessions))
    normal = NormalDist()
    # Outcome draws follow a randomly shifted golden-ratio sequence: uniform
    # for each request, but the share accepted tracks the mean probability.
    draw = float(rng.random())

    def emit(t: int, session: str, kind: TelemetryKind, payload: dict, meta=None) -> None:
        nonlocal seq
        raw.append((t, seq, TelemetryEvent(session, t, kind, payload), meta))
        seq += 1

    for s in range(n_sessions):
        session = f"s{s:04d}"
        start = EPOCH_MS + int(rng.integers(0, 30)) * MINUTE_MS
        n_minutes = int(lengths[s])
        affinity = AFFINITY_SD * normal.inv_cdf((order[s] + 0.5) / n_sessions)
        gap_at = int(rng.integers(3, n_minutes - 2)) if order[s] % 3 == 0 else -1
        gap_len = int(rng.integers(3, 6))
        state = s % 2  # alternate, so every log holds both states in equal measure
        complexity = PROFILE[state]["complexity"]
        minute_start = start - MINUTE_MS
        for m in range(n_minutes):
            minute_start += MINUTE_MS
            if m == gap_at:
                minute_start += gap_len * MINUTE_MS
                idle_gaps += 1
            if rng.random() >= STAY[state]:
                state = 1 - state
            prof = PROFILE[state]
            complexity = float(np.clip(
                0.7 * complexity + 0.3 * prof["complexity"] + rng.normal(0.0, 0.05), 0.0, 1.0))
            tally = minutes.setdefault((session, minute_start), MinuteTally())

            def at() -> int:
                return minute_start + int(rng.integers(0, MINUTE_MS))

            typing_s = float(np.clip(rng.normal(prof["typing_s"], prof["typing_s"] * 0.35), 3.0, 55.0))
            n_bursts = 1 + int(rng.poisson(prof["bursts"]))
            for _ in range(n_bursts):
                duration_ms = int(typing_s * 1000 / n_bursts)
                chars = int(rng.poisson(max(prof["cps"] * duration_ms / 1000, 0.1)))
                emit(at(), session, TelemetryKind.TYPING_BURST,
                     {"chars_typed": chars, "duration_ms": duration_ms})
            for _ in range(int(rng.poisson(prof["pauses"]))):
                emit(at(), session, TelemetryKind.PAUSE, {"gap_ms": int(rng.integers(2000, 9000))})
            for _ in range(int(rng.poisson(prof["nav"]))):
                emit(at(), session, TelemetryKind.FILE_NAV, {
                    "open_files": 1 + int(rng.poisson(prof["open_files"])),
                    "file_lines": int(max(20.0, rng.normal(prof["file_lines"], prof["file_lines"] * 0.3))),
                })
            for command, rate in zip(COMMANDS, prof["commands"]):
                for _ in range(int(rng.poisson(rate))):
                    emit(at(), session, TelemetryKind.COMMAND_USE, {"command": command})
            if rng.random() < prof["diag"]:
                emit(at(), session, TelemetryKind.DIAGNOSTIC, {
                    "warnings": int(rng.poisson(prof["warnings"])),
                    "errors": int(rng.poisson(prof["errors"])),
                    "breakpoints": int(rng.poisson(prof["breakpoints"])),
                })
            lines = int(rng.poisson(prof["lines"]))
            if lines:
                emit(at(), session, TelemetryKind.EDIT_APPLIED, {"lines_added": lines})

            # Suggestion episodes own disjoint slots, so an inline suggestion
            # is resolved (accepted within its slot, or rejected by the next
            # request, shown suggestion or inactivity) before any later request.
            n_requests = int(rng.poisson(1.0))
            n_inline = int(rng.poisson(prof["inline"]))
            total = min(SLOTS_PER_MINUTE, n_requests + n_inline)
            slots = rng.choice(SLOTS_PER_MINUTE, size=total, replace=False)
            kinds = [True] * min(n_requests, total) + [False] * (total - min(n_requests, total))
            logit = TRUTH_BIAS + TRUTH_EXPLORATORY * state + affinity + TRUTH_COMPLEXITY * (complexity - 0.4)
            for slot, is_request in zip(slots, kinds):
                slot_start = minute_start + int(slot) * SLOT_MS
                if is_request:
                    t = slot_start + int(rng.integers(0, SLOT_MS))
                    p_true = _sigmoid(logit)
                    draw = (draw + GOLDEN) % 1.0
                    accepted = draw < p_true
                    reported = float(np.clip(complexity + rng.normal(0.0, 0.04), 0.0, 1.0))
                    file_index = int(np.clip(round(complexity * (n_files - 1) + rng.normal(0.0, 20.0)),
                                             0, n_files - 1))
                    sid = f"{session}-q{seq:06d}"
                    emit(t, session, TelemetryKind.SUGGESTION_REQUESTED, {
                        "suggestion_id": sid,
                        "task_complexity": round(reported, 6),
                        "prompt_length": int(rng.integers(20, 800)),
                    }, meta={"p_true": p_true, "accepted": accepted,
                             "complexity": round(reported, 6), "file_index": file_index})
                else:
                    t = slot_start + int(rng.integers(0, 4000))
                    sid = f"{session}-i{seq:06d}"
                    emit(t, session, TelemetryKind.SUGGESTION_SHOWN, {"suggestion_id": sid})
                    if rng.random() < _sigmoid(affinity + 0.6 * state - 0.6):
                        emit(t + int(rng.integers(300, 3000)), session,
                             TelemetryKind.SUGGESTION_ACCEPTED, {"suggestion_id": sid})

    raw.sort(key=lambda item: (item[0], item[1]))
    return _tally(raw, minutes, idle_gaps)


def _tally(raw, minutes, idle_gaps) -> EventLog:
    """Walk the ordered stream once, keeping the generator's own counts."""
    events = []
    requests = []
    last_minute: dict[str, int] = {}
    prev_minute: dict[str, int | None] = {}
    inline_acc: dict[str, int] = {}
    inline_shown: dict[str, int] = {}
    chars: dict[str, int] = {}
    typing: dict[str, float] = {}
    for index, (t, _, event, meta) in enumerate(raw):
        events.append(event)
        sid = event.session_id
        minute = (t // MINUTE_MS) * MINUTE_MS
        if last_minute.get(sid) != minute:
            prev_minute[sid] = last_minute.get(sid)
            last_minute[sid] = minute
        tally = minutes[(sid, minute)]
        payload = event.payload
        kind = event.kind
        if kind is TelemetryKind.TYPING_BURST:
            tally.chars_typed += payload["chars_typed"]
            tally.typing_time_s += payload["duration_ms"] / 1000.0
            chars[sid] = chars.get(sid, 0) + payload["chars_typed"]
            typing[sid] = typing.get(sid, 0.0) + payload["duration_ms"] / 1000.0
        elif kind is TelemetryKind.PAUSE:
            tally.pause_count += 1
        elif kind is TelemetryKind.FILE_NAV:
            tally.nav_events += 1
            tally.open_files = payload["open_files"]
            tally.file_lines = payload["file_lines"]
        elif kind is TelemetryKind.COMMAND_USE:
            name = COMMAND_FIELD[payload["command"]]
            setattr(tally, name, getattr(tally, name) + 1)
        elif kind is TelemetryKind.DIAGNOSTIC:
            tally.warnings = payload["warnings"]
            tally.errors = payload["errors"]
            tally.breakpoints = payload["breakpoints"]
        elif kind is TelemetryKind.EDIT_APPLIED:
            tally.lines_added += payload["lines_added"]
        elif kind is TelemetryKind.SUGGESTION_SHOWN:
            inline_shown[sid] = inline_shown.get(sid, 0) + 1
        elif kind is TelemetryKind.SUGGESTION_ACCEPTED:
            inline_acc[sid] = inline_acc.get(sid, 0) + 1
        elif kind is TelemetryKind.SUGGESTION_REQUESTED:
            requests.append(Request(
                event_index=index,
                session_id=sid,
                timestamp=t,
                p_true=meta["p_true"],
                accepted=meta["accepted"],
                complexity=meta["complexity"],
                file_index=meta["file_index"],
                window_minute=prev_minute.get(sid),
                inline_accepted=inline_acc.get(sid, 0),
                inline_rejected=inline_shown.get(sid, 0) - inline_acc.get(sid, 0),
                total_chars=chars.get(sid, 0),
                total_typing_s=typing.get(sid, 0.0),
            ))
    return EventLog(events=events, requests=requests, minutes=minutes, idle_gaps=idle_gaps)


# --- source corpus -------------------------------------------------------

PYTHON, PYTHON_BROKEN, JAVASCRIPT = "python", "python-broken", "javascript"

#: Kinds by file index: 60% parseable Python, 20% broken Python, 20%
#: JavaScript at every size, whatever the seed.
KIND_CYCLE = (PYTHON, PYTHON, PYTHON_BROKEN, PYTHON, JAVASCRIPT)


@dataclass(frozen=True)
class SourceFile:
    kind: str
    lang: str
    text: str
    loc: int  # non-blank lines, counted while writing them
    cyclomatic: int  # 1 + decision points, by the counting rule that applies


def _python_function(rng, name: str, size: int) -> tuple[list[str], int, int]:
    """A parseable function; returns lines, grammar decision points, keyword hits."""
    lines = [f"def {name}(a, b, c):", "    x = a + b"]
    grammar = keywords = 0
    for _ in range(size):
        pick = int(rng.integers(0, 7))
        if pick == 0:
            lines += ["    if a > b:", "        x = x - 1", "    elif a < c:", "        x = x + 2",
                      "    else:", "        x = x * 3"]
            grammar += 2
            keywords += 1
        elif pick == 1:
            lines += ["    for k in range(b):", "        x += k"]
            grammar += 1
            keywords += 1
        elif pick == 2:
            lines += ["    while x > 100:", "        x = x // 2"]
            grammar += 1
            keywords += 1
        elif pick == 3:
            lines += ["    try:", "        x = x / c", "    except ZeroDivisionError:", "        x = 0"]
            grammar += 1
        elif pick == 4:
            lines += ["    y = a if b else c", "    x = x + y"]
            grammar += 1
            keywords += 1
        elif pick == 5:
            lines += ["    z = a and b and c", "    x = x - z"]
            grammar += 2
        else:
            lines += ["    w = [k for k in range(a) if k % 2]", "    x = x + len(w)"]
            grammar += 2
            keywords += 2
    lines.append("    return x")
    return lines, grammar, keywords


def _javascript_function(rng, name: str, size: int) -> tuple[list[str], int]:
    lines = [f"function {name}(a, b, c) {{", "  let x = a + b;"]
    points = 0
    for _ in range(size):
        pick = int(rng.integers(0, 6))
        if pick == 0:
            lines += ["  if (a > b && b > c) {", "    x = x - 1;", "  }"]
            points += 2
        elif pick == 1:
            lines += ["  for (let k = 0; k < b; k++) {", "    x += k;", "  }"]
            points += 1
        elif pick == 2:
            lines += ["  while (x > 100) {", "    x = x >> 1;", "  }"]
            points += 1
        elif pick == 3:
            lines += ["  switch (a) {", "    case 1: x = 2; break;", "    case 2: x = 3; break;",
                      "    default: x = 4;", "  }"]
            points += 2
        elif pick == 4:
            lines += ["  try {", "    x = x / c;", "  } catch (e) {", "    x = 0;", "  }"]
            points += 1
        else:
            lines += ["  const y = a > b ? a : b;", "  const z = y || c;", "  x = x + z;"]
            points += 2
    lines += ["  return x;", "}"]
    return lines, points


def generate_corpus(seed_seq: np.random.SeedSequence, n_files: int) -> list[SourceFile]:
    """Files of growing size: parseable Python, broken Python and JavaScript.

    Decision points and non-blank lines are counted as the text is written.
    Index ``i`` holds roughly ``i / n_files`` of the largest size, so a
    request's latent complexity picks a file of matching weight.
    """
    rng = np.random.default_rng(seed_seq)
    files = []
    for i in range(n_files):
        n_functions = 1 + (i * 8) // n_files
        kind = KIND_CYCLE[i % len(KIND_CYCLE)]
        text_lines: list[str] = []
        grammar = keywords = 0
        for f in range(n_functions):
            size = 1 + (i + f) % 5  # snippets per function; the seed picks which
            if kind == JAVASCRIPT:
                body, points = _javascript_function(rng, f"f_{f}", size)
                keywords += points
            else:
                body, g, k = _python_function(rng, f"f_{f}", size)
                grammar += g
                keywords += k
            text_lines += body + [""]
        if kind == PYTHON_BROKEN:
            text_lines.insert(int(rng.integers(0, len(text_lines))), "def broken(:")
        loc = sum(1 for line in text_lines if line)
        files.append(SourceFile(
            kind=kind,
            lang="javascript" if kind == JAVASCRIPT else "python",
            text="\n".join(text_lines) + "\n",
            loc=loc,
            cyclomatic=1 + (grammar if kind == PYTHON else keywords),
        ))
    return files
