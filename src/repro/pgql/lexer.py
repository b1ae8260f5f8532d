"""Tokenizer for the PGQL subset.

Tokens are deliberately fine-grained: pattern arrows such as ``-[:KNOWS]->``
or ``-/:p+/->`` are assembled by the parser from single-character tokens, so
the lexer never has to guess whether ``<`` starts an arrow or a comparison.
Only the unambiguous two-character comparison operators (``<=``, ``>=``,
``<>``, ``!=``) are fused here.
"""

import re
from typing import NamedTuple

from ..errors import PgqlSyntaxError

#: Keywords recognized case-insensitively.  Anything else alphabetic lexes
#: as an identifier (function names like COUNT are resolved by the parser).
KEYWORDS = {
    "select",
    "from",
    "match",
    "where",
    "path",
    "as",
    "and",
    "or",
    "not",
    "true",
    "false",
    "null",
    "distinct",
    "group",
    "order",
    "by",
    "limit",
    "asc",
    "desc",
    "having",
    "in",
    "between",
    "is",
}

# One match per token: the whitespace and comments before it, then the
# token's text in the group of its class — a word (a letter or ``_``, then
# letters, digits and ``_``; the class also admits numeric non-digits, which
# ``tokenize`` rejects), a number (ASCII digits only), a quoted string, an
# operator — or any other character, which is an error; the empty match at
# the end of the text ends the list.
_TOKEN = re.compile(
    r"((?:\s+|--[^\n]*\n?|/\*.*?\*/)*)(?:([^\W\d]\w*)|([0-9]+(?:\.[0-9]+)?)"
    r"|('(?:[^']|'')*'(?!'))|(<=|>=|<>|!=|/(?!\*)|[()\[\]{}.,:|+*?=<>\-%!])|(/\*|.)|\Z)",
    re.S,
)
_new = tuple.__new__  # Token(kind, text, pos) without its Python-level __new__


class Token(NamedTuple):
    """A lexed token.

    Attributes:
        kind: ``"ident"``, ``"keyword"``, ``"number"``, ``"string"``, or the
            operator/punctuation text itself (e.g. ``"("``, ``"<="``).
        text: the raw token text (keywords lower-cased).
        pos: character offset into the query string.
    """

    kind: str
    text: str
    pos: int

    def is_kw(self, word):
        return self.kind == "keyword" and self.text == word


EOF = Token("eof", "", -1)


def tokenize(query):
    """Tokenize ``query`` into a list of :class:`Token`.

    Raises:
        PgqlSyntaxError: on unterminated strings or comments and on
            unexpected characters.
    """
    tokens = []
    pos = 0
    for skip, word, number, string, op, other in _TOKEN.findall(query):
        pos += len(skip)
        if op:
            tokens.append(_new(Token, (op, op, pos)))
            pos += len(op)
        elif word and (word[0].isalpha() or word[0] == "_"):
            low = word.lower()
            if low in KEYWORDS:
                tokens.append(_new(Token, ("keyword", low, pos)))
            else:
                tokens.append(_new(Token, ("ident", word, pos)))
            pos += len(word)
        elif number:
            tokens.append(_new(Token, ("number", number, pos)))
            pos += len(number)
        elif string:
            tokens.append(_new(Token, ("string", string[1:-1].replace("''", "'"), pos)))
            pos += len(string)
        elif other == "/*":
            raise PgqlSyntaxError("unterminated block comment", pos)
        elif other == "'":
            raise PgqlSyntaxError("unterminated string literal", pos)
        elif other or word:
            raise PgqlSyntaxError(f"unexpected character {(other or word)[0]!r}", pos)
    return tokens
