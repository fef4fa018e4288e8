"""Exception taxonomy shared across the package."""

from __future__ import annotations


class SuggestGateError(Exception):
    """Base class for all package errors."""


# --- telemetry ---------------------------------------------------------


class RejectOutOfOrder(SuggestGateError):
    """Event timestamp precedes session activity beyond tolerance (corrupt stream)."""


# --- dataset -----------------------------------------------------------


class TooFewRecords(SuggestGateError):
    """A class cannot be represented in every split."""


class SingleClass(SuggestGateError):
    """An operation requiring both classes saw only one."""


# --- model -------------------------------------------------------------


class LengthMismatch(SuggestGateError):
    """Parallel sequences differ in length."""


class Divergence(SuggestGateError):
    """Training loss became non-finite."""


class FeatureMismatch(SuggestGateError):
    """Input vector does not match the model's feature contract."""


class ModelFormatError(SuggestGateError):
    """Model file has an unsupported version or inconsistent contents."""


# --- evaluation --------------------------------------------------------


class NoPositives(SuggestGateError):
    """Metric requires at least one positive label."""


# --- stats -------------------------------------------------------------


class InvalidCounts(SuggestGateError):
    """Counts violate 0 <= k <= n, n >= 1."""


class DegeneratePool(SuggestGateError):
    """Pooled proportion is 0 or 1; z statistic undefined."""


class DivisionByZeroCell(SuggestGateError):
    """A ratio denominator cell is zero."""


# --- harness -----------------------------------------------------------


class InvalidConfig(SuggestGateError):
    """Synthetic-session config violates its invariants."""


class SchemaError(SuggestGateError):
    """A log line or event does not hold the event or record it should."""
