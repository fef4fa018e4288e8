"""Behavioral pre-filtering gate for editor code suggestions.

Predicts, from content-agnostic editor telemetry alone, whether a developer
is likely to accept a code suggestion, and gates LLM invocation on that
prediction. The package holds the pipeline as a library: telemetry
ingestion, feature engineering, task-complexity estimation, training,
threshold tuning and the gate decision, plus the offline tools around it
(evaluation, proportion statistics and a synthetic session generator).
"""

from .complexity import ComplexityMethod, ComplexityReport, task_complexity
from .dataset import SuggestionRecord, Split, class_weights, stratified_split
from .features import FEATURE_NAMES, FeatureVector, build_feature_vector
from .gate import Decision, GateDecision, Reason, select_threshold, should_trigger
from .model import (
    AcceptanceModel,
    LogisticHyper,
    TreeHyper,
    load_model,
    predict_proba,
    save_model,
)
from .telemetry import (
    BehaviorWindow,
    Label,
    SessionState,
    TelemetryEvent,
    TelemetryKind,
    ingest_event,
    label_suggestion,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceModel",
    "BehaviorWindow",
    "ComplexityMethod",
    "ComplexityReport",
    "Decision",
    "FEATURE_NAMES",
    "FeatureVector",
    "GateDecision",
    "Label",
    "LogisticHyper",
    "Reason",
    "SessionState",
    "Split",
    "SuggestionRecord",
    "TelemetryEvent",
    "TelemetryKind",
    "TreeHyper",
    "build_feature_vector",
    "class_weights",
    "ingest_event",
    "label_suggestion",
    "load_model",
    "predict_proba",
    "save_model",
    "select_threshold",
    "should_trigger",
    "stratified_split",
    "task_complexity",
]
