from __future__ import annotations

import ast
import io
import keyword
import math
import random
import sys
import sysconfig
import tokenize
from pathlib import Path

import pytest

from suggestgate.complexity import (
    ComplexityMethod,
    _cyclomatic_ast,
    _python_tokens,
    maintainability_index,
    task_complexity,
)


# --- reference counts ---------------------------------------------------
# The operator/operand lists as tokenize gives them, and the decision count
# as an ast.walk gives it: the one-pass scan and the stack walk in
# complexity.py must return exactly these.


def _reference_tokens(text: str) -> tuple[list[str], list[str]]:
    operators: list[str] = []
    operands: list[str] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.OP:
            operators.append(tok.string)
        elif tok.type == tokenize.NAME:
            if keyword.iskeyword(tok.string):
                operators.append(tok.string)
            else:
                operands.append(tok.string)
        elif tok.type in (tokenize.NUMBER, tokenize.STRING):
            operands.append(tok.string)
    return operators, operands


def _reference_cyclomatic(tree: ast.AST) -> int:
    count = 1
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.For, ast.AsyncFor, ast.IfExp)):
            count += 1
        elif isinstance(node, ast.ExceptHandler):
            count += 1
        elif isinstance(node, ast.BoolOp):
            count += len(node.values) - 1
        elif isinstance(node, ast.comprehension):
            count += 1 + len(node.ifs)
        elif isinstance(node, ast.match_case):
            count += 1
    return count


tokenize_keeps_fstrings_whole = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="from 3.12 tokenize splits f-strings into parts; requires-python is >=3.10",
)

# Each parses; each exercises a token rule that a scan can get wrong.
HAND_WRITTEN = {
    "crlf": "def f(a):\r\n    return a + 1\r\n",
    "lone_cr_mid_line": "a = 1\rb = 2\n",
    "form_feed_and_tabs": "\x0cimport os\n\x0c\nif os:\n\tx = [1,\t2]\n\ty = x\n",
    "backslash_continuation": "x = 1 + \\\n    2\ny = 3 + \\\r\n    4\r\n",
    "backslash_crlf_in_single_quotes": "s = 'abc\\\r\ndef' + \"gh\\\r\nij\"\r\n",
    "triple_quoted_with_prefixes": (
        'x = rb"""a\n\'\'\' "" \\"""\nb"""\n'
        "y = f'''{x!r:>10}\n\"quoted\" ''\n'''\n"
        'z = U"""line\\\nnext"""\n'
        "w = Br'''\\'''' + b''''q'''\n"
    ),
    "nested_quotes": 'a = "it\'s" + \'say "hi"\' + "\\"" + \'#\'  # "a comment"\n',
    "fstring_format_specs": 'w = 4\nv = f"{w:>{w}}|{w!r:^10}|{{w}}" rf\'{w:#x}\\d\'\n',
    "numbers": "a = 1_000j\nb = 0x_FF\nc = .5\nd = 5.\ne = 1if a else 2\nf = 1e-3+0o17+0b_1\n",
    "operators": "def f(x) -> int:\n    if (n := x):\n        x @= n\n    return ...\n",
    "match_case": (
        "match p:\n"
        "    case [x, *_] if x:\n        pass\n"
        "    case {'k': 1} | None:\n        pass\n"
        "    case _:\n        match = case = 1\n"
    ),
    "decisions": (
        "async def g(xs):\n"
        "    async for x in xs:\n"
        "        try:\n"
        "            y = [i for i in x if i if not i or i and x]\n"
        "        except ValueError:\n"
        "            pass\n"
        "        while x:\n"
        "            break\n"
        "    return {k: v for k, v in xs} if xs else lambda: None\n"
    ),
    "no_trailing_newline": "x = (1,\n     2)  # end",
    "empty": "",
}


def _stdlib_sample() -> list[tuple[str, ast.Module]]:
    """Every 6th stdlib .py file of at most 32 kB, sorted by path, that parses."""
    root = Path(sysconfig.get_paths()["stdlib"])
    paths = sorted(
        p for p in root.rglob("*.py")
        if not {"site-packages", "dist-packages"} & set(p.parts) and p.stat().st_size <= 32_000
    )
    sample = []
    for path in paths[::6]:
        try:
            text = path.read_text(encoding="utf-8")
            sample.append((text, ast.parse(text)))
        except (UnicodeDecodeError, SyntaxError, ValueError):
            continue
    return sample


@pytest.fixture(scope="module")
def stdlib_sample() -> list[tuple[str, ast.Module]]:
    sample = _stdlib_sample()
    assert len(sample) >= 200
    return sample


# "numbers" holds 1if, which the parser accepts with a warning.
@pytest.mark.filterwarnings("ignore:invalid decimal literal:SyntaxWarning")
class TestPythonTokenScan:
    @tokenize_keeps_fstrings_whole
    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
    def test_hand_written_matches_tokenize(self, name):
        source = HAND_WRITTEN[name]
        ast.parse(source)
        assert _python_tokens(source) == _reference_tokens(source)

    @tokenize_keeps_fstrings_whole
    def test_stdlib_sample_matches_tokenize(self, stdlib_sample):
        for text, _ in stdlib_sample:
            assert _python_tokens(text) == _reference_tokens(text)

    def test_fstring_is_one_operand(self):
        source = 'v = f"{w:>{w}}" f"{x!r}"\n'
        assert _python_tokens(source) == (["="], ["v", 'f"{w:>{w}}"', 'f"{x!r}"'])

    def test_line_after_lone_cr_is_counted(self):
        # ast.parse ends a line at a lone CR. tokenize does not, and takes the
        # rest of a physical line that opens with one for blank; the scan
        # counts the code the parser reads there.
        source = "x = 1\n\ry = 2\n"
        assert _python_tokens(source) == (["=", "="], ["x", "1", "y", "2"])


@pytest.mark.filterwarnings("ignore:invalid decimal literal:SyntaxWarning")
class TestCyclomaticWalk:
    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
    def test_hand_written_matches_ast_walk(self, name):
        tree = ast.parse(HAND_WRITTEN[name])
        assert _cyclomatic_ast(tree) == _reference_cyclomatic(tree)

    def test_decisions_hand_count(self):
        # async for, try handler, while, ternary: 4; the list comprehension's
        # generator and two ifs: 3; or/and: 2; the dict comprehension: 1.
        assert _cyclomatic_ast(ast.parse(HAND_WRITTEN["decisions"])) == 1 + 10

    def test_stdlib_sample_matches_ast_walk(self, stdlib_sample):
        for _, tree in stdlib_sample:
            assert _cyclomatic_ast(tree) == _reference_cyclomatic(tree)


class TestCyclomatic:
    def test_straight_line_is_one(self):
        source = "a = 1\nb = a + 2\nprint(b)\n"
        assert task_complexity(source, "python").cyclomatic == 1
        assert task_complexity(source, "javascript").cyclomatic == 1

    def test_empty_source_is_one(self):
        assert task_complexity("", "python").cyclomatic == 1
        assert task_complexity("", "").cyclomatic == 1

    def test_if_with_short_circuit_counts_two_points(self):
        # Hand count: one branch plus one short-circuit operator.
        assert task_complexity("if (a && b) { f(); }", "javascript").cyclomatic == 3
        assert task_complexity("if a and b:\n    f()\n", "python").cyclomatic == 3

    def test_grammar_counts_loops_cases_catches(self):
        source = (
            "for i in range(3):\n"
            "    while i:\n"
            "        i -= 1\n"
            "try:\n"
            "    f()\n"
            "except ValueError:\n"
            "    pass\n"
        )
        # for + while + except handler = 3 decision points.
        assert task_complexity(source, "python").cyclomatic == 4

    def test_ternary_counts(self):
        assert task_complexity("x = 1 if flag else 2\n", "python").cyclomatic == 2

    def test_unparseable_python_falls_back(self):
        source = "if (x {\n"
        grammar = task_complexity(source, "python")
        assert grammar.cyclomatic == task_complexity(source, "unknown").cyclomatic

    def test_grammar_heuristic_agree_on_keyword_simple_corpus(self):
        corpus = [
            "x = 1\n",
            "if a:\n    x = 1\n",
            "if a:\n    x = 1\nif b:\n    y = 2\n",
            "for i in range(3):\n    print(i)\n",
            "while x:\n    x -= 1\n",
            "if a:\n    for i in r:\n        f(i)\n",
            "def f(a):\n    return a\n",
            "def f(a):\n    if a:\n        return 1\n    return 0\n",
            "x = 1 if flag else 2\n",
            "for i in r:\n    if i:\n        f(i)\n",
            "while a:\n    while b:\n        f()\n",
            "def g():\n    for i in r:\n        while i:\n            i -= 1\n",
            "if a:\n    pass\nfor b in c:\n    pass\nwhile d:\n    pass\n",
            "y = [f(i) for i in r]\n",
            "y = [i for i in r if i > 0]\n",
            "def h(x):\n    return x + 1\n",
            "if a:\n    if b:\n        if c:\n            f()\n",
            "for i in r:\n    for j in s:\n        f(i, j)\n",
            "try:\n    f()\nexcept ValueError:\n    pass\n",
            "if a and b:\n    f()\n",
        ]
        assert len(corpus) == 20
        for source in corpus:
            grammar_cc = task_complexity(source, "python").cyclomatic
            heuristic_cc = task_complexity(source, "unknown").cyclomatic
            assert abs(grammar_cc - heuristic_cc) <= 1, source


class TestHalstead:
    def test_empty_source(self):
        report = task_complexity("", "python")
        assert (report.halstead_volume, report.halstead_effort) == (0.0, 0.0)

    def test_hand_counted_statement(self):
        # a = b + c: n1=2 {=, +}, n2=3 {a, b, c}, N1=2, N2=3.
        expected_v = 5 * math.log2(5)
        report = task_complexity("a = b + c", "python")
        assert report.halstead_volume == pytest.approx(expected_v, rel=1e-12)
        assert report.halstead_effort == pytest.approx(expected_v, rel=1e-12)  # D = 1

    def test_doubling_totals_not_vocabulary(self):
        report = task_complexity("a = b + c\na = b + c", "python")
        v = report.halstead_volume
        assert v == pytest.approx(10 * math.log2(5), rel=1e-12)
        assert report.halstead_effort == pytest.approx(2 * v, rel=1e-12)  # D = (2/2)*(6/3) = 2

    def test_operators_only_is_zero(self):
        # pass is a keyword, so an operator; there are no operands.
        report = task_complexity("pass\n", "python")
        assert (report.halstead_volume, report.halstead_effort) == (0.0, 0.0)

    def test_unparseable_python_falls_back(self):
        # tokenize accepts Python 2 print; ast.parse does not.
        for source in ("print 'hello'\n", "if (x {\n", "def f(:\n    ???"):
            grammar = task_complexity(source, "python")
            heuristic = task_complexity(source, "unknown")
            assert grammar.halstead_volume == heuristic.halstead_volume
            assert grammar.halstead_effort == heuristic.halstead_effort


class TestMaintainability:
    def test_unit_inputs(self):
        assert maintainability_index(1.0, 1, 1) == pytest.approx(
            (171 - 0.23) * 100 / 171, rel=1e-12
        )

    def test_clamps_to_zero(self):
        assert maintainability_index(1e18, 10_000, 10_000_000) == 0.0

    def test_monotone_decreasing_in_cyclomatic(self):
        values = [maintainability_index(100.0, cc, 50) for cc in (1, 5, 20, 80)]
        assert values == sorted(values, reverse=True)

    def test_range(self):
        for v, cc, loc in [(0, 1, 0), (50, 3, 10), (1e6, 40, 2000)]:
            assert 0.0 <= maintainability_index(v, cc, loc) <= 100.0


class TestTaskComplexity:
    def test_empty_file_floor_case(self):
        report = task_complexity("", "python")
        assert report.cyclomatic == 1
        assert report.halstead_effort == 0.0
        assert report.task_complexity == pytest.approx(
            0.3 * (1 - report.maintainability / 100), abs=1e-12
        )
        assert report.task_complexity < 0.01

    def test_adding_if_strictly_raises_tc(self):
        base = "def f(x):\n    y = x + 1\n    return y\n"
        branched = "def f(x):\n    if x:\n        y = x + 1\n    return y\n"
        for lang in ("python", "unknown"):
            r0 = task_complexity(base, lang)
            r1 = task_complexity(branched, lang)
            assert r1.cyclomatic >= r0.cyclomatic + 1
            assert r1.task_complexity > r0.task_complexity

    def test_unknown_language_uses_heuristic(self):
        report = task_complexity("fn main() { if x { y(); } }", "rust")
        assert report.method is ComplexityMethod.HEURISTIC

    def test_python_uses_grammar(self):
        report = task_complexity("x = 1\n", "python")
        assert report.method is ComplexityMethod.GRAMMAR

    def test_broken_python_falls_back_to_heuristic(self):
        report = task_complexity("def f(:\n    ???", "python")
        assert report.method is ComplexityMethod.HEURISTIC
        assert 0.0 <= report.task_complexity <= 1.0

    def test_bounded_on_fuzz_corpus(self):
        rng = random.Random(1234)
        for _ in range(100):
            size = rng.randrange(0, 400)
            blob = bytes(rng.randrange(256) for _ in range(size))
            report = task_complexity(blob, "unknown")
            assert 0.0 <= report.task_complexity <= 1.0
            assert report.cyclomatic >= 1

    def test_heuristic_total_on_arbitrary_bytes_even_as_python(self):
        rng = random.Random(99)
        for _ in range(30):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
            report = task_complexity(blob, "python")
            assert 0.0 <= report.task_complexity <= 1.0

    def test_monotone_in_cyclomatic_with_fixed_volume_loc(self):
        # TC component-wise: the squash of CC-1 grows while MI falls.
        sources = ["x = 1\n", "if a:\n    x = 1\n", "if a:\n    x = 1\nif b:\n    x = 2\n"]
        scores = [task_complexity(s, "unknown").task_complexity for s in sources]
        assert scores == sorted(scores)

    def test_report_is_content_agnostic(self):
        secret = "super_secret_identifier_xyz"
        report = task_complexity(f"{secret} = 1\n", "python")
        assert secret not in repr(report)
