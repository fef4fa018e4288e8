"""Per-file Task Complexity: syntax metrics with a keyword/LOC fallback.

Python source takes the grammar path when ``ast.parse`` accepts it: the
McCabe count walks that tree, and the Halstead counts come from one regex
scan of the text built from ``tokenize``'s own token patterns, which yields
the operator and operand lists ``tokenize`` would. Any other language, or
Python that ``ast.parse`` rejects, takes the language-neutral heuristics:
decision keywords for the path count and the line count for the effort.
``task_complexity`` is the one entry point. Output is aggregate numbers
only — no substring of the source ever leaves this module.
"""

from __future__ import annotations

import ast
import keyword
import math
import re
import tokenize
from dataclasses import dataclass
from enum import Enum


class ComplexityMethod(str, Enum):
    GRAMMAR = "Grammar"
    HEURISTIC = "Heuristic"


@dataclass(frozen=True)
class ComplexityReport:
    cyclomatic: int
    halstead_volume: float
    halstead_effort: float
    maintainability: float
    loc: int
    task_complexity: float
    method: ComplexityMethod


_PYTHON_LANGS = frozenset({"python", "py", "python3"})

# Decision keywords for the fallback cyclomatic count.
_DECISION_KEYWORDS = re.compile(r"\b(?:if|for|while|case|catch)\b")

# One Python token per match, from tokenize's patterns in the order tokenize
# tries them. A triple-quoted string, or a one-line string continued by a
# backslash, is one match across lines: re.DOTALL lets an escape take a
# newline, and the one-line forms take a backslash-CRLF whole. Continuations,
# newlines and comments match no group.
_PY_TOKEN = re.compile(
    tokenize.Whitespace
    + r"(?:\\\r?\n|\r?\n|" + tokenize.Comment
    + "|(?P<literal>"
    + tokenize.StringPrefix + "'''" + tokenize.Single3
    + "|" + tokenize.StringPrefix + '"""' + tokenize.Double3
    + "|" + tokenize.StringPrefix + r"'[^\n'\\]*(?:(?:\\\r?\n|\\.)[^\n'\\]*)*'"
    + "|" + tokenize.StringPrefix + r'"[^\n"\\]*(?:(?:\\\r?\n|\\.)[^\n"\\]*)*"'
    + "|" + tokenize.Number
    + ")|(?P<special>" + tokenize.Special
    + ")|(?P<name>" + tokenize.Name + "))",
    re.DOTALL,
)

# Node types that add one decision point each.
_BRANCH_NODES = frozenset(
    {ast.If, ast.While, ast.For, ast.AsyncFor, ast.IfExp, ast.ExceptHandler, ast.match_case}
)


def _as_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8", errors="replace")
    return source


def _is_python(lang: str) -> bool:
    return lang.strip().lower() in _PYTHON_LANGS


def count_loc(source) -> int:
    """Non-blank line count."""
    text = _as_text(source)
    return sum(1 for line in text.splitlines() if line.strip())


def _parse_python(text: str, lang: str) -> ast.Module | None:
    """The tree of ``text`` when ``lang`` is Python and ``ast.parse`` accepts it."""
    if not _is_python(lang):
        return None
    try:
        return ast.parse(text)
    except (SyntaxError, ValueError, MemoryError, RecursionError):
        return None


def _cyclomatic_ast(tree: ast.AST) -> int:
    count = 1
    stack = [tree]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        kind = type(node)
        if kind in _BRANCH_NODES:
            count += 1
        elif kind is ast.BoolOp:
            count += len(node.values) - 1
        elif kind is ast.comprehension:
            count += 1 + len(node.ifs)
        for field in node._fields:
            value = getattr(node, field)
            if isinstance(value, ast.AST):
                push(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        push(item)
    return count


def _cyclomatic_keywords(text: str) -> int:
    count = 1 + len(_DECISION_KEYWORDS.findall(text))
    count += text.count("&&") + text.count("||") + text.count("?")
    return count


def _halstead_from_counts(
    operators: list[str], operands: list[str]
) -> tuple[float, float]:
    """Halstead (volume, effort) from operator/operand counts.

    V = (N1+N2)·log2(n1+n2), D = (n1/2)·(N2/n2), E = D·V; both zero when
    there are no operands.
    """
    n1 = len(set(operators))
    n2 = len(set(operands))
    big_n1 = len(operators)
    big_n2 = len(operands)
    if n2 == 0:
        return 0.0, 0.0
    volume = (big_n1 + big_n2) * math.log2(n1 + n2)
    difficulty = (n1 / 2.0) * (big_n2 / n2)
    return volume, difficulty * volume


def _python_tokens(text: str) -> tuple[list[str], list[str]]:
    """(operators, operands) of Python source that ``ast.parse`` accepts.

    Numbers, strings and names that are not keywords are operands; operator
    tokens and keywords are operators.
    """
    operators: list[str] = []
    operands: list[str] = []
    for match in _PY_TOKEN.finditer(text):
        group = match.lastgroup
        if group == "literal":
            operands.append(match[group])
        elif group == "special":
            operators.append(match[group])
        elif group == "name":
            name = match[group]
            if keyword.iskeyword(name):
                operators.append(name)
            else:
                operands.append(name)
    return operators, operands


def maintainability_index(volume: float, cyclomatic_count: int, loc: int) -> float:
    """Classic 171-point maintainability index rescaled to [0, 100]."""
    raw = (
        171.0
        - 5.2 * math.log(max(volume, 1.0))
        - 0.23 * cyclomatic_count
        - 16.2 * math.log(max(loc, 1))
    )
    return min(100.0, max(0.0, raw * 100.0 / 171.0))


def _squash(x: float, knee: float) -> float:
    return x / (x + knee)


def task_complexity(source, lang: str = "") -> ComplexityReport:
    """Single [0, 1] complexity score for the file around a suggestion request.

    Grammar mode combines real cyclomatic count and Halstead effort; the
    fallback uses decision keywords for the path count and LOC as the
    effort surrogate, so it is total on arbitrary input.
    """
    text = _as_text(source)
    loc = count_loc(text)

    tree = _parse_python(text, lang)
    if tree is not None:
        cc = _cyclomatic_ast(tree)
        volume, effort = _halstead_from_counts(*_python_tokens(text))
    else:
        cc = _cyclomatic_keywords(text)
        volume = float(loc)
        effort = float(loc)

    mi = maintainability_index(volume, cc, loc)
    score = (
        0.4 * _squash(cc - 1.0, 10.0)
        + 0.3 * _squash(math.log1p(effort), 8.0)
        + 0.3 * (1.0 - mi / 100.0)
    )
    return ComplexityReport(
        cyclomatic=cc,
        halstead_volume=volume,
        halstead_effort=effort,
        maintainability=mi,
        loc=loc,
        task_complexity=min(1.0, max(0.0, score)),
        method=ComplexityMethod.HEURISTIC if tree is None else ComplexityMethod.GRAMMAR,
    )
