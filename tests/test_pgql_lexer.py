"""Unit tests for the PGQL tokenizer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PgqlSyntaxError
from repro.pgql import tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)]


class TestBasics:
    def test_keywords_case_insensitive(self):
        toks = tokenize("SELECT select SeLeCt")
        assert all(t.is_kw("select") for t in toks)

    def test_identifiers(self):
        toks = tokenize("foo _bar baz9")
        assert [t.kind for t in toks] == ["ident"] * 3
        assert [t.text for t in toks] == ["foo", "_bar", "baz9"]

    def test_integer_and_float(self):
        toks = tokenize("42 3.14")
        assert [t.text for t in toks] == ["42", "3.14"]
        assert all(t.kind == "number" for t in toks)

    def test_string_with_escaped_quote(self):
        toks = tokenize("'it''s'")
        assert toks[0].kind == "string"
        assert toks[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(PgqlSyntaxError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(PgqlSyntaxError) as exc:
            tokenize("a @ b")
        assert exc.value.position == 2


class TestOperators:
    def test_two_char_comparisons(self):
        assert kinds("a <= b >= c <> d != e") == [
            "ident", "<=", "ident", ">=", "ident", "<>", "ident", "!=", "ident",
        ]

    def test_pattern_punctuation_is_single_chars(self):
        assert kinds("-[:KNOWS]->") == ["-", "[", ":", "ident", "]", "-", ">"]

    def test_rpq_punctuation(self):
        assert kinds("-/:p+/->") == ["-", "/", ":", "ident", "+", "/", "-", ">"]

    def test_quantifier_braces(self):
        assert kinds("{1,3}") == ["{", "number", ",", "number", "}"]


class TestComments:
    def test_line_comment(self):
        assert texts("a -- comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* stuff */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(PgqlSyntaxError):
            tokenize("a /* oops")

    def test_positions_recorded(self):
        toks = tokenize("ab cd")
        assert [t.pos for t in toks] == [0, 3]


class TestNumbers:
    """Numbers are ASCII digits; any other digit character is an error at
    its offset, not a number ``int()`` happens to accept or reject."""

    @pytest.mark.parametrize("query", [
        "SELECT COUNT(*) FROM MATCH (a) WHERE id(a) = ²",
        "SELECT COUNT(*) FROM MATCH (a) WHERE id(a) = ٣",
        "SELECT COUNT(*) FROM MATCH (a) LIMIT ²",
    ])
    def test_non_ascii_digit_is_a_syntax_error_at_its_offset(self, query):
        from repro.pgql import parse

        with pytest.raises(PgqlSyntaxError) as exc:
            parse(query)
        assert exc.value.position == len(query) - 1

    def test_non_ascii_digit_ends_a_number(self):
        with pytest.raises(PgqlSyntaxError) as exc:
            tokenize("LIMIT 1٣")
        assert exc.value.position == 7

    def test_numeric_letters_do_not_start_a_word(self):
        with pytest.raises(PgqlSyntaxError) as exc:
            tokenize("a ½b")
        assert exc.value.position == 2
        assert texts("a²") == ["a²"]  # a word goes on with any digit


# ---------------------------------------------------------------------------
# The per-character lexer the compiled-regex one replaced, kept as the
# reference its token stream is compared with.
# ---------------------------------------------------------------------------

_REFERENCE_KEYWORDS = {
    "select", "from", "match", "where", "path", "as", "and", "or", "not",
    "true", "false", "null", "distinct", "group", "order", "by", "limit",
    "asc", "desc", "having", "in", "between", "is",
}


def reference_tokenize(query):
    """``(kind, text, pos)`` per token, as the per-character loop lexed it."""
    tokens = []
    i = 0
    n = len(query)
    while i < n:
        ch = query[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and query.startswith("--", i):
            end = query.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "/" and query.startswith("/*", i):
            end = query.find("*/", i + 2)
            if end == -1:
                raise PgqlSyntaxError("unterminated block comment", i)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (query[i].isalnum() or query[i] == "_"):
                i += 1
            word = query[start:i]
            low = word.lower()
            if low in _REFERENCE_KEYWORDS:
                tokens.append(("keyword", low, start))
            else:
                tokens.append(("ident", word, start))
            continue
        if ch.isdigit():
            start = i
            while i < n and query[i].isdigit():
                i += 1
            if i < n and query[i] == "." and i + 1 < n and query[i + 1].isdigit():
                i += 1
                while i < n and query[i].isdigit():
                    i += 1
            tokens.append(("number", query[start:i], start))
            continue
        if ch == "'":
            start = i
            i += 1
            parts = []
            while True:
                if i >= n:
                    raise PgqlSyntaxError("unterminated string literal", start)
                if query[i] == "'":
                    if i + 1 < n and query[i + 1] == "'":
                        parts.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                parts.append(query[i])
                i += 1
            tokens.append(("string", "".join(parts), start))
            continue
        two = query[i : i + 2]
        if two in {"<=", ">=", "<>", "!="}:
            tokens.append((two, two, i))
            i += 2
            continue
        if ch in "()[]{}.,:|+*?/=<>-%!":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PgqlSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _repo_query_texts():
    """Every query text the repository runs: the benchmark queries, the
    golden cases, the benchmark's point templates and the examples."""
    import ast
    import importlib.util
    import pathlib

    from repro.datagen import BENCHMARK_QUERIES, mini_ldbc

    from . import dft_golden_cases as golden
    from . import estimates_golden_cases as estimates

    root = pathlib.Path(__file__).resolve().parent.parent
    graph, info = mini_ldbc("xs")
    texts = [build(info) for build in BENCHMARK_QUERIES.values()]
    texts += golden.SMALL_QUERIES.values()
    texts += golden.ldbc_queries(info).values()
    texts += golden.upwalk_queries(graph, info).values()
    texts += golden.point_queries(graph, info).values()
    texts += [text for text, _scouting in estimates.queries(info).values()]
    spec = importlib.util.spec_from_file_location(
        "perf_workloads", root / "benchmarks" / "perf" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts += [template.format(p=info.start_person) for _name, template in workloads.POINT_TEMPLATES]
    for path in sorted((root / "examples").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "MATCH" in node.value:
                texts.append(node.value)
    return texts


class TestReferenceLexer:
    def test_every_repo_query_lexes_as_the_reference_does(self):
        texts = _repo_query_texts()
        assert len(texts) > 70
        for text in texts:
            assert [tuple(t) for t in tokenize(text)] == reference_tokenize(text), text

    @pytest.mark.parametrize("text", [
        "a -- comment", "a -- comment\nb", "a /* x */ b /**/c", "x/*/ y */z",
        "1.2.3 4. .5 12abc", "'it''s' '' ''''", "a<=b<>c!=d>=e<f>g", "-->-/:p*/-",
        "ünïcode_ñame Ab9_ _", "\tSELECT\r\n\x0bx\x0c", "",
    ])
    def test_edge_cases_lex_as_the_reference_does(self, text):
        assert [tuple(t) for t in tokenize(text)] == reference_tokenize(text)

    @pytest.mark.parametrize("text", [
        "a /* oops", "'oops", "it's", "a @ b", "a ; b", "x = 'ab''", "/*",
    ])
    def test_errors_match_the_reference(self, text):
        with pytest.raises(PgqlSyntaxError) as want:
            reference_tokenize(text)
        with pytest.raises(PgqlSyntaxError) as got:
            tokenize(text)
        assert (str(got.value), got.value.position) == (str(want.value), want.value.position)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(list("ab_Z09 \t\n'-/*<>=!.,:|+?()[]{}%@;") + [
        "é", "½", "Ⅻ", " ", "\xa0", "--", "/*", "*/", "''", "1.5", "select",
    ]), max_size=14).map("".join))
    def test_random_text_lexes_as_the_reference_does(self, text):
        """Tokens or the first error, over texts without non-ASCII digits
        (the one class the reference lexed as numbers)."""
        def outcome(lex):
            try:
                return [tuple(t) for t in lex(text)]
            except PgqlSyntaxError as error:
                return str(error), error.position

        assert outcome(tokenize) == outcome(reference_tokenize)
