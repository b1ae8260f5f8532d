"""Recursive-descent parser for the PGQL subset.

Entry point: :func:`parse`.  See :mod:`repro.pgql.ast` for the supported
grammar.  Pattern arrows are assembled from single-character tokens, so the
parser distinguishes, e.g., ``(a)-[:X]->(b)`` from the expression ``a - b``
purely by context (patterns only occur after ``MATCH``/``PATH ... AS``).
"""

from ..errors import PgqlSyntaxError
from ..graph.types import Direction
from .ast import (
    Aggregate,
    Binary,
    EdgePattern,
    FuncCall,
    InList,
    IsNull,
    Literal,
    OrderItem,
    PathMacro,
    PathPattern,
    PropRef,
    Quantifier,
    Query,
    RpqPattern,
    SelectItem,
    Unary,
    VarRef,
    VertexPattern,
)
from .lexer import EOF, tokenize

AGGREGATE_FUNCS = {"count", "sum", "min", "max", "avg"}


def parse(text):
    """Parse PGQL ``text`` into a :class:`repro.pgql.ast.Query`.

    Raises:
        PgqlSyntaxError: with the offending character position on bad input.
    """
    return _Parser(text).parse_query()


def parse_expression(text):
    """Parse a standalone expression (handy for tests and filters)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.tokens.append(EOF)  # so that peeking at the end rarely raises
        self.pos = 0

    # -- token helpers ---------------------------------------------------
    def peek(self, ahead=0):
        try:
            return self.tokens[self.pos + ahead]
        except IndexError:
            return EOF

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    # The helpers below advance past the token they return without a
    # second ``peek``: a parse makes about 150 of these calls.
    def accept(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            return None
        self.pos += 1
        return tok

    def accept_kw(self, word):
        tok = self.peek()
        if tok.kind != "keyword" or tok.text != word:
            return None
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what or kind!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def expect_kw(self, word):
        tok = self.peek()
        if tok.kind != "keyword" or tok.text != word:
            raise self.error(f"expected {word.upper()!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def expect_eof(self):
        tok = self.peek()
        if tok is not EOF:
            raise self.error(f"unexpected trailing input {tok.text!r}")

    def error(self, message):
        return PgqlSyntaxError(message, self.peek().pos)

    # -- query -------------------------------------------------------------
    def parse_query(self):
        macros = []
        while self.peek().is_kw("path"):
            macros.append(self.parse_path_macro())

        self.expect_kw("select")
        distinct = self.accept_kw("distinct") is not None
        select = [self.parse_select_item()]
        while self.accept(","):
            select.append(self.parse_select_item())

        self.expect_kw("from")
        patterns = [self.parse_match_item()]
        while self.accept(","):
            patterns.append(self.parse_match_item())

        where = None
        if self.accept_kw("where"):
            where = self.parse_expr()

        group_by = []
        if self.accept_kw("group"):
            self.expect_kw("by")
            group_by.append(self.parse_expr())
            while self.accept(","):
                group_by.append(self.parse_expr())

        having = None
        if self.accept_kw("having"):
            having = self.parse_expr()

        order_by = []
        if self.accept_kw("order"):
            self.expect_kw("by")
            order_by.append(self.parse_order_item())
            while self.accept(","):
                order_by.append(self.parse_order_item())

        limit = None
        offset = None
        if self.accept_kw("limit"):
            tok = self.expect("number", "LIMIT count")
            limit = int(tok.text)
            if self.peek().kind == "ident" and self.peek().text.lower() == "offset":
                self.next()
                offset = int(self.expect("number", "OFFSET count").text)

        self.expect_eof()
        return Query(
            select=tuple(select),
            distinct=distinct,
            match_patterns=tuple(patterns),
            where=where,
            path_macros=tuple(macros),
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
        )

    def parse_path_macro(self):
        self.expect_kw("path")
        name = self.expect("ident", "path name").text
        self.expect_kw("as")
        pattern = self.parse_pattern()
        where = None
        if self.accept_kw("where"):
            where = self.parse_expr()
        return PathMacro(name=name, pattern=pattern, where=where)

    def parse_select_item(self):
        expr = self.parse_expr()
        alias = None
        if self.accept_kw("as"):
            alias = self.expect("ident", "alias").text
        return SelectItem(expr=expr, alias=alias)

    def parse_order_item(self):
        expr = self.parse_expr()
        descending = False
        if self.accept_kw("desc"):
            descending = True
        else:
            self.accept_kw("asc")
        return OrderItem(expr=expr, descending=descending)

    def parse_match_item(self):
        self.accept_kw("match")
        return self.parse_pattern()

    # -- patterns ------------------------------------------------------
    def parse_pattern(self):
        elements = [self.parse_vertex()]
        while self.peek().kind in ("-", "<"):
            elements.append(self.parse_connector())
            elements.append(self.parse_vertex())
        return PathPattern(elements=tuple(elements))

    def parse_vertex(self):
        self.expect("(", "vertex pattern '('")
        var = None
        tok = self.peek()
        if tok.kind == "ident":
            var = self.next().text
        labels = self.parse_label_alternatives()
        self.expect(")", "closing ')'")
        return VertexPattern(var=var, labels=labels)

    def parse_label_alternatives(self):
        labels = []
        if self.accept(":"):
            labels.append(self.expect("ident", "label").text)
            while self.accept("|"):
                labels.append(self.expect("ident", "label").text)
        return tuple(labels)

    def parse_connector(self):
        """Parse ``-...->`` / ``<-...-`` / ``-...-`` (edge or RPQ segment)."""
        if self.accept("<"):
            self.expect("-", "'-' after '<'")
            body_kind, var, labels, name, quant = self.parse_connector_body()
            self.expect("-", "closing '-'")
            if self.peek().kind == ">":
                raise self.error("edge cannot be both <- and ->")
            direction = Direction.IN
        else:
            self.expect("-", "edge '-'")
            body_kind, var, labels, name, quant = self.parse_connector_body()
            if body_kind != "plain":
                self.expect("-", "closing '-'")
            if self.accept(">"):
                direction = Direction.OUT
            else:
                direction = Direction.BOTH
        if body_kind == "rpq":
            return RpqPattern(name=name, quantifier=quant, direction=direction)
        return EdgePattern(var=var, labels=labels, direction=direction)

    def parse_connector_body(self):
        """Parse what sits between the dashes of a connector.

        Returns ``(kind, var, labels, rpq_name, quantifier)`` where kind is
        ``"plain"`` (bare ``->``), ``"edge"`` (``-[...]->``), or ``"rpq"``
        (``-/:name?/->``).
        """
        if self.accept("["):
            var = None
            if self.peek().kind == "ident":
                var = self.next().text
            labels = self.parse_label_alternatives()
            self.expect("]", "closing ']'")
            return "edge", var, labels, None, None
        if self.accept("/"):
            self.expect(":", "':' in RPQ segment")
            name = self.expect("ident", "path name or label").text
            quant = self.parse_quantifier()
            self.expect("/", "closing '/'")
            return "rpq", None, (), name, quant
        return "plain", None, (), None, None

    def parse_quantifier(self):
        tok = self.peek()
        if tok.kind == "*":
            self.next()
            return Quantifier(0, None)
        if tok.kind == "+":
            self.next()
            return Quantifier(1, None)
        if tok.kind == "?":
            self.next()
            return Quantifier(0, 1)
        if tok.kind == "{":
            self.next()
            lo = int(self.expect("number", "quantifier bound").text)
            hi = lo
            if self.accept(","):
                if self.peek().kind == "number":
                    hi = int(self.next().text)
                else:
                    hi = None
            self.expect("}", "closing '}'")
            if hi is not None and hi < lo:
                raise self.error(f"quantifier max {hi} < min {lo}")
            return Quantifier(lo, hi)
        # PGQL requires an explicit quantifier on -/:p/-> segments; default
        # to exactly-one for convenience.
        return Quantifier(1, 1)

    # -- expressions -----------------------------------------------------
    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while self.accept_kw("or"):
            left = Binary("or", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.accept_kw("and"):
            left = Binary("and", left, self.parse_not())
        return left

    def parse_not(self):
        if self.accept_kw("not"):
            return Unary("not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_additive()
        tok = self.peek()
        if tok.kind in ("=", "<", ">", "<=", ">=", "<>", "!="):
            op = self.next().kind
            if op == "!=":
                op = "<>"
            right = self.parse_additive()
            return Binary(op, left, right)
        if tok.is_kw("is"):
            self.next()
            negated = self.accept_kw("not") is not None
            null_tok = self.peek()
            if not null_tok.is_kw("null"):
                raise self.error("expected NULL after IS [NOT]")
            self.next()
            return IsNull(left, negated=negated)
        negated = False
        if tok.is_kw("not"):
            # Only NOT IN / NOT BETWEEN are valid here (prefix NOT is
            # handled a level up).
            if not (self.peek(1).is_kw("in") or self.peek(1).is_kw("between")):
                return left
            self.next()
            negated = True
            tok = self.peek()
        if tok.is_kw("in"):
            self.next()
            self.expect("(", "'(' after IN")
            values = [self.parse_literal_value()]
            while self.accept(","):
                values.append(self.parse_literal_value())
            self.expect(")", "closing ')'")
            return InList(left, tuple(values), negated=negated)
        if tok.is_kw("between"):
            # SQL: x BETWEEN lo AND hi binds tighter than boolean AND.
            self.next()
            lo = self.parse_additive()
            self.expect_kw("and")
            hi = self.parse_additive()
            between = Binary("and", Binary(">=", left, lo), Binary("<=", left, hi))
            return Unary("not", between) if negated else between
        return left

    def parse_literal_value(self):
        """A (possibly negated) literal inside an IN list."""
        expr = self.parse_unary()
        if isinstance(expr, Literal):
            return expr.value
        if (
            isinstance(expr, Unary)
            and expr.op == "-"
            and isinstance(expr.operand, Literal)
        ):
            return -expr.operand.value
        raise self.error("IN lists may contain only literals")

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = Binary(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while self.peek().kind in ("*", "/", "%"):
            op = self.next().kind
            left = Binary(op, left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.accept("-"):
            return Unary("-", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            text = tok.text
            return Literal(float(text) if "." in text else int(text))
        if tok.kind == "string":
            self.next()
            return Literal(tok.text)
        if tok.is_kw("true"):
            self.next()
            return Literal(True)
        if tok.is_kw("false"):
            self.next()
            return Literal(False)
        if tok.is_kw("null"):
            self.next()
            return Literal(None)
        if tok.kind == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")", "closing ')'")
            return expr
        if tok.kind == "ident":
            return self.parse_ident_expr()
        raise self.error(f"unexpected token {tok.text!r} in expression")

    def parse_ident_expr(self):
        name = self.next().text
        if self.accept("."):
            # Property names may collide with keywords (x.group, x.limit).
            tok = self.peek()
            if tok.kind not in ("ident", "keyword"):
                raise self.error(f"expected property name, found {tok.text!r}")
            self.next()
            return PropRef(var=name, prop=tok.text)
        if self.peek().kind == "(":
            return self.parse_call(name)
        return VarRef(var=name)

    def parse_call(self, name):
        self.expect("(")
        low = name.lower()
        if low in AGGREGATE_FUNCS:
            distinct = self.accept_kw("distinct") is not None
            if low == "count" and self.accept("*"):
                self.expect(")", "closing ')'")
                return Aggregate(func="count", arg=None, distinct=distinct)
            arg = self.parse_expr()
            self.expect(")", "closing ')'")
            return Aggregate(func=low, arg=arg, distinct=distinct)
        args = []
        if self.peek().kind != ")":
            args.append(self.parse_expr())
            while self.accept(","):
                args.append(self.parse_expr())
        self.expect(")", "closing ')'")
        return FuncCall(name=low, args=tuple(args))
