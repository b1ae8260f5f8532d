"""Inter-query plan cache.

Compiling a PGQL query (parse, plan, selectivity ordering) is pure given
the graph and the scouting flag, so a :class:`repro.Session` keeps one
cache across all queries it runs — concurrent submissions of the same
query text share one compiled :class:`~repro.plan.compiler.
DistributedPlan` object.  Keys are *normalized* query text, so trivially
reformatted repeats of a query still hit.

Normalization folds exactly what the lexer ignores: leading and trailing
whitespace goes, and every other run of whitespace *between tokens*
becomes one space.  It folds nothing the lexer reads: the inside of a
quoted string literal is kept byte for byte (``'John  Smith'`` and
``'John Smith'`` are different queries), so is a comment — a ``--``
comment together with the newline that ends it — and there is no case
folding (literals and property names are case-sensitive).  Two spellings
that differ in anything else (a comment, ``a.x=1`` against ``a.x = 1``)
compile separately; that costs a compile, never a wrong plan.

The cache holds at most ``_MAX_PLANS`` plans and forgets the least recently
used first: a session serving point queries with varying literals would
otherwise keep every plan, with its step and termination tables, for ever.
"""

import re

#: Plans a cache keeps (least recently used evicted first).
_MAX_PLANS = 256
_WHITESPACE = re.compile(r"\s+")
# What must survive verbatim, in the lexer's own terms — a quoted run
# (``''`` escapes a quote: two adjacent runs), a line comment with its
# newline, a block comment — or else a run of whitespace.
_VERBATIM_OR_SPACE = re.compile(r"'[^']*'|--[^\n]*\n?|/\*.*?\*/|\s+", re.S)


def _fold(match):
    token = match.group()
    return " " if token.isspace() else token


def normalize_query_text(text):
    """Canonical cache key for a query string (see the module docstring)."""
    text = text.strip()
    if "'" in text or "--" in text or "/*" in text:
        return _VERBATIM_OR_SPACE.sub(_fold, text)
    return _WHITESPACE.sub(" ", text)  # nothing verbatim: one C-speed pass


class PlanCache:
    """Maps normalized query text to compiled plans, counting hits/misses."""

    def __init__(self):
        self._plans = {}
        self._last = (None, None)  # (text, its normalization)
        self.hits = 0
        self.misses = 0

    def _key(self, text, scouting):
        # A miss is followed by a store of the same text: normalize once.
        if text is not self._last[0]:
            self._last = (text, normalize_query_text(text))
        return self._last[1], scouting

    def lookup(self, text, scouting=False):
        """The cached plan for ``text``, or ``None`` (counts the outcome)."""
        key = self._key(text, scouting)
        plan = self._plans.pop(key, None)
        if plan is None:
            self.misses += 1
        else:
            self.hits += 1
            self._plans[key] = plan  # now the most recently used
        return plan

    def store(self, text, scouting, plan):
        plans = self._plans
        plans[self._key(text, scouting)] = plan
        if len(plans) > _MAX_PLANS:
            del plans[next(iter(plans))]

    def clear(self):
        self._plans.clear()

    def __len__(self):
        return len(self._plans)
