"""The benchmark's workloads: set-up, timed rounds and the checks of each.

One caller in a closed loop drives the public functions of ``suggestgate``.
``run.py`` sets up at least ``SETUPS`` times, then repeats whole rounds
until they have taken the run's seconds and number at least ``MIN_ROUNDS``.
Every round of a workload is the same work, so every round counts the same
operations.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import suggestgate.gate as gate_module
from suggestgate.complexity import task_complexity
from suggestgate.dataset import SuggestionRecord, class_weights, stratified_split
from suggestgate.evaluation import bootstrap_std, compute_metric_report, permutation_importance, pr_auc, roc_auc
from suggestgate.features import FEATURE_NAMES, build_feature_vector
from suggestgate.gate import DEFAULT_RECALL_FLOOR, TAU_GRID, Decision, Reason, select_threshold, should_trigger
from suggestgate.model import fit_logistic, fit_tree_ensemble, load_model, predict_proba_batch, save_model
from suggestgate.stats import TwoByTwo, proportion_comparison
from suggestgate.telemetry import SessionState, ingest_event, record_outcome

import oracle
from inputs import EventLog, generate_corpus, generate_log
from spans import Spans

TRAIN_SESSIONS = 160
REPLAY_SESSIONS = 95  # at least ~1050 requests, so a p99 over them has ten beyond it
N_FILES = 120
SETUPS = 3
SETUP_SECONDS = 2.0
MIN_ROUNDS = 3
BOOTSTRAP_RESAMPLES = 200
PERMUTATION_REPEATS = 5
#: A traced logistic round holds ~16k spans; a few pairs give steady medians.
MAX_TRACED_PAIRS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    model_kind: str  # "logistic" or "tree"
    editor_path: bool  # score the open file with task_complexity on every request
    study: bool  # every round re-runs the offline study before it replays


WORKLOADS = {
    w.name: w
    for w in (
        Workload("replay-logistic", "logistic", editor_path=False, study=False),
        Workload("replay-tree", "tree", editor_path=False, study=False),
        Workload("offline-eval", "logistic", editor_path=False, study=True),
        Workload("complexity", "logistic", editor_path=True, study=False),
    )
}


@dataclass
class Inputs:
    train: EventLog
    replay: EventLog
    corpus: list


def make_inputs(seed: int) -> Inputs:
    """Training log, held-out replay log and corpus, each from its own child seed."""
    train_seed, replay_seed, corpus_seed = np.random.SeedSequence(seed).spawn(3)
    return Inputs(
        train=generate_log(train_seed, TRAIN_SESSIONS, N_FILES),
        replay=generate_log(replay_seed, REPLAY_SESSIONS, N_FILES),
        corpus=generate_corpus(corpus_seed, N_FILES),
    )


class Program:
    """The program's public functions, each with a span around it when traced.

    Traced, it also counts what the spans alone do not show: windows closed
    by ingest, rows per batch predict and fit, and the path and size of
    every file scored.
    """

    def __init__(self, spans: Spans | None) -> None:
        self.spans = spans
        self.windows_closed = 0
        self.rows: dict[int, int] = {}  # span index -> rows, for batch predict and fit
        self.scored: list[tuple[int, bool, int]] = []  # span index, grammar path, loc

        def wrap(name, fn):
            return fn if spans is None else spans.wrap(name, fn)

        def wrap_rows(name, fn, rows_at):
            return fn if spans is None else self._counted(name, fn, rows_at)

        self.build = wrap("features.build", build_feature_vector)
        self.trigger = wrap("gate.should_trigger", should_trigger)
        self.record_outcome = wrap("telemetry.record_outcome", record_outcome)
        self.split = wrap("dataset.split", stratified_split)
        self.fit_logistic = wrap_rows("model.fit_logistic", fit_logistic, 0)
        self.fit_tree = wrap_rows("model.fit_tree", fit_tree_ensemble, 0)
        self.select_threshold = wrap("gate.select_threshold", select_threshold)
        self.predict_batch = wrap_rows("model.predict_batch", predict_proba_batch, 1)
        self.save = wrap("model.save", save_model)
        self.load = wrap("model.load", load_model)
        self.metric_report = wrap("evaluation.metric_report", compute_metric_report)
        self.bootstrap = wrap("evaluation.bootstrap", bootstrap_std)
        self.importance = wrap("evaluation.permutation_importance", permutation_importance)
        self.compare = wrap("stats.proportion_comparison", proportion_comparison)
        self.ingest = ingest_event if spans is None else self._traced_ingest
        self.score_file = task_complexity if spans is None else self._traced_score

    def _counted(self, name, fn, rows_at: int):
        def traced(*args, **kwargs):
            idx = self.spans.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.close(idx)
                self.rows[idx] = len(args[rows_at])

        return traced

    def _traced_ingest(self, state, event):
        before = state.latest_window()
        idx = self.spans.open("telemetry.ingest")
        try:
            return ingest_event(state, event)
        finally:
            self.spans.close(idx)
            if state.latest_window() is not before:
                self.windows_closed += 1

    def _traced_score(self, text, lang):
        idx = self.spans.open("complexity.task_complexity")
        try:
            report = task_complexity(text, lang)
        finally:
            self.spans.close(idx)
        self.scored.append((idx, report.method.value == "Grammar", report.loc))
        return report

    @contextmanager
    def row_predict_spans(self):
        """Span the gate's own call to the row predictor while traced."""
        original = gate_module.predict_proba
        if self.spans is not None:
            gate_module.predict_proba = self.spans.wrap("model.predict_row", original)
        try:
            yield
        finally:
            gate_module.predict_proba = original


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0

    def add(self, ok) -> None:
        ok = np.atleast_1d(np.asarray(ok, dtype=bool))
        self.attempted += int(ok.size)
        self.failed += int(np.count_nonzero(~ok))


def _arrays(records) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([r.x for r in records], dtype=float),
            np.array([r.y for r in records], dtype=float))


def build_records(prog: Program, log: EventLog, corpus, editor_path: bool) -> list:
    """Training records: every request delivered, its outcome fed back."""
    states: dict[str, SessionState] = {}
    request_at = {req.event_index: req for req in log.requests}
    records = []
    for index, event in enumerate(log.events):
        state = states.get(event.session_id)
        if state is None:
            state = states[event.session_id] = SessionState(event.session_id)
        prog.ingest(state, event)
        req = request_at.get(index)
        if req is None:
            continue
        if editor_path:
            source = corpus[req.file_index]
            complexity = prog.score_file(source.text, source.lang).task_complexity
        else:
            complexity = event.payload["task_complexity"]
        fv = prog.build(state, complexity, event.timestamp)
        records.append(SuggestionRecord(x=fv.values, y=int(req.accepted),
                                        timestamp=event.timestamp, session_id=event.session_id))
        prog.record_outcome(state, req.accepted)
    return records


def train_gate(prog: Program, records, kind: str, workdir: Path):
    """Split, fit, tune tau at the recall floor, and round-trip the artifact."""
    split = prog.split(records, seed=0)
    weights = class_weights(split.train)
    X, y = _arrays(split.train)
    fit = prog.fit_logistic if kind == "logistic" else prog.fit_tree
    model = fit(X, y, weights)
    selection = prog.select_threshold(model, split.validation, DEFAULT_RECALL_FLOOR)
    path = workdir / f"{kind}.json"
    prog.save(model.with_tau(selection.tau), path)
    return prog.load(path), selection, split.validation


@dataclass
class Pass:
    """One replay of the held-out log."""

    wall_s: float
    latencies_ns: np.ndarray
    p: np.ndarray
    triggered: np.ndarray
    fail_open: np.ndarray
    vectors: np.ndarray
    reports: list = field(default_factory=list)


def replay(prog: Program, log: EventLog, corpus, model, editor_path: bool) -> Pass:
    """Stream the log through ingest, features and the gate; deliver what triggers."""
    n = len(log.requests)
    request_at = {req.event_index: (i, req) for i, req in enumerate(log.requests)}
    latencies = np.empty(n, dtype=np.int64)
    p = np.empty(n)
    triggered = np.zeros(n, dtype=bool)
    fail_open = np.zeros(n, dtype=bool)
    vectors = [None] * n
    reports = []
    states: dict[str, SessionState] = {}
    ingest, build, trigger, deliver, score_file = (
        prog.ingest, prog.build, prog.trigger, prog.record_outcome, prog.score_file)
    tau = model.tau
    spans = prog.spans
    start = perf_counter()
    for index, event in enumerate(log.events):
        state = states.get(event.session_id)
        if state is None:
            state = states[event.session_id] = SessionState(event.session_id)
        hit = request_at.get(index)
        if hit is None:
            ingest(state, event)
            continue
        i, req = hit
        span = spans.open("replay.request", request=i) if spans is not None else -1
        ingest(state, event)
        t0 = perf_counter_ns()
        if editor_path:
            source = corpus[req.file_index]
            report = score_file(source.text, source.lang)
            fv = build(state, report.task_complexity, event.timestamp)
        else:
            fv = build(state, event.payload["task_complexity"], event.timestamp)
        decision = trigger(model, fv, tau)
        latencies[i] = perf_counter_ns() - t0
        if decision.decision is Decision.TRIGGER:
            deliver(state, req.accepted)
            triggered[i] = True
        if spans is not None:
            spans.close(span)
        p[i] = decision.p_accept
        fail_open[i] = decision.reason is Reason.FAIL_OPEN
        vectors[i] = fv.values
        if editor_path:
            reports.append(report)
    wall = perf_counter() - start
    return Pass(wall, latencies, p, triggered, fail_open, np.array(vectors), reports)


@dataclass(frozen=True)
class Quality:
    gated_acceptance_rate: float
    accepted_recall: float
    roc_auc: float
    suppressed: int
    fail_open: int


def check_pass(prog: Program, inputs: Inputs, model, run: Pass, expected, mask,
               editor_path: bool, checks: Checks) -> Quality:
    """Hold one replay's outputs against the generator's tallies.

    One operation per decision (its vector, its decision and, on the editor
    path, its complexity report), plus five for the pass as a whole.
    """
    log = inputs.replay
    names = list(FEATURE_NAMES)
    expected = expected.copy()
    mask = mask.copy()
    oracle.fill_session_outcomes(log, names, expected, mask, run.triggered)
    if "task_complexity" in names:
        # The editor path feeds the score it computed; the log path the payload's.
        j = names.index("task_complexity")
        expected[:, j] = ([r.task_complexity for r in run.reports] if editor_path
                          else [q.complexity for q in log.requests])
        mask[:, j] = True
    ok = oracle.vector_rows_ok(run.vectors, expected, mask)
    ok &= oracle.decisions_ok(run.triggered, run.p, model.tau, run.fail_open)
    if editor_path:
        ok &= np.array([oracle.complexity_ok(r, inputs.corpus[q.file_index])
                        for r, q in zip(run.reports, log.requests)])
    checks.add(ok)

    accepted = np.array([q.accepted for q in log.requests])
    p_true = np.array([q.p_true for q in log.requests])
    delivered_accepted = int(np.count_nonzero(accepted & run.triggered))
    n_triggered = int(np.count_nonzero(run.triggered))
    gated = delivered_accepted / n_triggered
    report = prog.metric_report(run.p, accepted.astype(float), model.tau)
    table = (int(accepted.sum()), accepted.size, delivered_accepted, n_triggered)
    comparison = prog.compare(TwoByTwo(*table))
    checks.add([
        oracle.row_batch_ok(run.p, prog.predict_batch(model, run.vectors)),
        oracle.auc_ok(report.roc_auc, run.p, accepted),
        oracle.oracle_ok(p_true, accepted, report.roc_auc),
        oracle.gating_ok(gated, float(accepted.mean())),
        oracle.fisher_ok(comparison.p_fisher, *table),
    ])
    return Quality(
        gated_acceptance_rate=gated,
        accepted_recall=delivered_accepted / int(accepted.sum()),
        roc_auc=report.roc_auc,
        suppressed=accepted.size - n_triggered,
        fail_open=int(np.count_nonzero(run.fail_open)),
    )


@dataclass
class StudyModel:
    """What the offline study produced for one model kind, kept for the checks."""

    model: object
    selection: object
    validation: tuple
    test: tuple
    scores: np.ndarray
    roc_auc: float
    table: tuple
    p_fisher: float


def offline_study(prog: Program, records, workdir: Path) -> tuple[object, list]:
    """The paper's offline study; returns the logistic gate it deploys and its evidence."""
    split = prog.split(records, seed=0)
    weights = class_weights(split.train)
    X, y = _arrays(split.train)
    Xt, yt = _arrays(split.test)
    evidence = []
    deployed = None
    for fit in (prog.fit_logistic, prog.fit_tree):
        model = fit(X, y, weights)
        selection = prog.select_threshold(model, split.validation, DEFAULT_RECALL_FLOOR)
        scores = prog.predict_batch(model, Xt)
        report = prog.metric_report(scores, yt, selection.tau)
        prog.bootstrap(roc_auc, scores, yt, n_resamples=BOOTSTRAP_RESAMPLES, seed=0)
        prog.bootstrap(pr_auc, scores, yt, n_resamples=BOOTSTRAP_RESAMPLES, seed=0)
        passed = scores > selection.tau
        table = (int(yt.sum()), yt.size, int(np.count_nonzero((yt == 1.0) & passed)),
                 int(np.count_nonzero(passed)))
        comparison = prog.compare(TwoByTwo(*table))
        evidence.append(StudyModel(model, selection, _arrays(split.validation), (Xt, yt),
                                   scores, report.roc_auc, table, comparison.p_fisher))
        if model.kind == "logistic":
            prog.importance(model, Xt, yt, repeats=PERMUTATION_REPEATS, seed=0)
            deployed = model.with_tau(selection.tau)
    path = workdir / "deployed.json"
    prog.save(deployed, path)
    return prog.load(path), evidence


def check_study(evidence: list, checks: Checks) -> None:
    """Three operations per model: its tau, its test ROC-AUC and its Fisher p-value."""
    for item in evidence:
        Xv, yv = item.validation
        _, yt = item.test
        checks.add([
            oracle.tau_ok(item.selection.tau, item.selection.satisfied_floor,
                          predict_proba_batch(item.model, Xv), yv, TAU_GRID, DEFAULT_RECALL_FLOOR),
            oracle.auc_ok(item.roc_auc, item.scores, yt == 1.0),
            oracle.fisher_ok(item.p_fisher, *item.table),
        ])


@dataclass
class Round:
    wall_s: float  # the timed operation: the replay, after the study where there is one
    replay_s: float
    events: int
    latencies_ns: np.ndarray
    quality: Quality
    windows_closed: int
    spans: tuple[int, int]  # span indices the round recorded, when traced
    vectors: np.ndarray


class Runner:
    """Set-up and rounds of one workload on one seed's inputs."""

    def __init__(self, workload: Workload, inputs: Inputs, workdir: Path) -> None:
        self.w = workload
        self.inputs = inputs
        self.workdir = workdir
        self.checks = Checks()
        self.records = None
        self.model = None  # the gate's model; its tau is the gate's threshold
        names = list(FEATURE_NAMES)
        unknown = set(names) - set(oracle.KNOWN_FEATURES)
        if unknown:
            raise SystemExit(f"features without an oracle: {sorted(unknown)}")
        self.expected, self.mask = oracle.expected_features(inputs.replay, names)
        self.train_expected, self.train_mask = oracle.expected_features(inputs.train, names)
        oracle.fill_session_outcomes(inputs.train, names, self.train_expected, self.train_mask,
                                     np.ones(len(inputs.train.requests), dtype=bool))

    def setup(self, prog: Program) -> float:
        """Program time before the first timed operation, in seconds; checked after.

        One operation per training record, plus one for tau where the set-up
        trains a gate.
        """
        start = perf_counter()
        records = build_records(prog, self.inputs.train, self.inputs.corpus, self.w.editor_path)
        trained = None if self.w.study else train_gate(prog, records, self.w.model_kind, self.workdir)
        elapsed = perf_counter() - start
        self.checks.add(oracle.vector_rows_ok(np.array([r.x for r in records]),
                                              self.train_expected, self.train_mask))
        if trained is not None:
            model, selection, validation = trained
            Xv, yv = _arrays(validation)
            self.checks.add(oracle.tau_ok(selection.tau, selection.satisfied_floor,
                                          predict_proba_batch(model, Xv), yv,
                                          TAU_GRID, DEFAULT_RECALL_FLOOR))
            self.model = model
        self.records = records
        return elapsed

    def round(self, prog: Program) -> Round:
        first_span = len(prog.spans.names) if prog.spans is not None else 0
        windows_before = prog.windows_closed
        start = perf_counter()
        model, evidence = self.model, []
        if self.w.study:
            model, evidence = offline_study(prog, self.records, self.workdir)
        with prog.row_predict_spans():
            run = replay(prog, self.inputs.replay, self.inputs.corpus, model, self.w.editor_path)
        wall = perf_counter() - start if self.w.study else run.wall_s
        last_span = len(prog.spans.names) if prog.spans is not None else 0
        check_study(evidence, self.checks)
        quality = check_pass(prog, self.inputs, model, run, self.expected, self.mask,
                             self.w.editor_path, self.checks)
        return Round(wall, run.wall_s, len(self.inputs.replay.events), run.latencies_ns, quality,
                     prog.windows_closed - windows_before, (first_span, last_span), run.vectors)
