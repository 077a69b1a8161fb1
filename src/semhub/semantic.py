"""Minimal in-memory semantic store.

IRIs, typed literals, triples grouped into named graphs, triple-pattern
matching, and a select-style query evaluator (conjunctive patterns compiled
once into a plan and joined left to right on tuple rows, comparison filters,
projection with deterministic row order).
There are no blank nodes, no inference, and exactly five literal datatypes;
this keeps query results exactly reproducible and easy to cross-check
against brute-force enumeration.

Every graph write, index and join looks terms up by IRI, so `Iri` is a
`str` subclass, as RDFLib's `URIRef` is: dicts and sets hash and compare
IRIs with str's C slots, not through a Python-level call.  An IRI thus
equals its own string.  Formatting one in an f-string is slow (it copies
through `__format__`), so hot paths concatenate instead.

A literal's lexical form is parsed once, when the literal is built, and the
parsed value is kept: filters and rules compare values without parsing
again, and `integer`/`decimal` build a literal from the value they hold.
Triples and literals pickle by their fields and are rebuilt through
`__init__`, so a loading process computes its own hashes and values.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    BindingLimitExceeded,
    ComparisonTypeError,
    MalformedIri,
    MalformedLiteral,
    MalformedQuery,
    UnboundVariable,
)

DATATYPES = ("string", "integer", "decimal", "boolean", "dateTime")

# Matched whole (fullmatch): `$` would also accept a final newline.
_INTEGER_RE = re.compile(r"[+-]?\d+")
_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)")

# Bindings one join step may hold.  The largest step of the bundled scenario
# holds 12, and of the bench's queries on a 5000-tick store 5,024.
MAX_BINDINGS = 100_000


class Iri(str):
    """Absolute IRI: a `str` whose text was checked.  Hashing, equality and
    ordering are str's own C slots, so the hash is `hash(text)` and an IRI
    equals its own string (`Iri("urn:x") == "urn:x"`), but never a
    `Literal` or `Variable`.  `str(iri)` and `.value` give the text as an
    exact `str`, which copies it; an f-string copies it too, through
    `__format__`, and takes two to five times as long as for a plain
    `str`, so hot paths concatenate (`"<" + iri + ">"`) or use the IRI
    itself."""

    __slots__ = ()

    def __new__(cls, value):
        # s.split() != [s] iff s holds a character that str.isspace() accepts
        if not isinstance(value, str) or ":" not in value or value.split() != [value]:
            raise MalformedIri(f"not an absolute IRI: {value!r}")
        return str.__new__(cls, value)

    __hash__ = str.__hash__
    __eq__ = str.__eq__
    __ne__ = str.__ne__

    value = property(str.__str__, doc="The IRI's text, as an exact `str`.")

    def __repr__(self) -> str:
        return f"Iri(value={str.__repr__(self)})"


@dataclass(frozen=True, slots=True)
class Variable:
    """Query variable; the name never contains a scheme separator."""

    name: str

    def __post_init__(self):
        n = self.name
        if not n or ":" in n or n.split() != [n]:
            raise MalformedIri(f"not a valid variable name: {n!r}")

    def __str__(self) -> str:
        return f"?{self.name}"


def _parse_literal(lexical: str, datatype: str):
    if datatype == "string":
        return lexical
    if datatype == "integer":
        if not _INTEGER_RE.fullmatch(lexical):
            raise MalformedLiteral(f"bad integer literal: {lexical!r}")
        return int(lexical)
    if datatype == "decimal":
        if not _DECIMAL_RE.fullmatch(lexical):
            raise MalformedLiteral(f"bad decimal literal: {lexical!r}")
        return Decimal(lexical)
    if datatype == "boolean":
        if lexical == "true":
            return True
        if lexical == "false":
            return False
        raise MalformedLiteral(f"bad boolean literal: {lexical!r}")
    if datatype == "dateTime":
        try:
            dt = datetime.fromisoformat(lexical)
        except ValueError as exc:
            raise MalformedLiteral(f"bad dateTime literal: {lexical!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt
    raise MalformedLiteral(f"unknown datatype: {datatype!r}")


_setattr = object.__setattr__  # how a frozen dataclass sets its own fields


@dataclass(frozen=True, slots=True)
class Literal:
    """Typed literal; the lexical form must parse under its datatype.  It is
    parsed once, when the literal is built, and the value kept in a slot
    that comparison, hashing and repr skip (RDFLib's `Literal` keeps its
    converted value the same way): filters compare literals far more often
    than literals are built.  `__init__` is written out, so building one is
    one call."""

    lexical: str
    datatype: str = "string"
    _value: object = field(init=False, repr=False, compare=False)

    def __init__(self, lexical: str, datatype: str = "string"):
        _setattr(self, "_value", _parse_literal(lexical, datatype))
        _setattr(self, "lexical", lexical)
        _setattr(self, "datatype", datatype)

    def __reduce__(self):
        # rebuilt through __init__, so the value is parsed where it is loaded
        return Literal, (self.lexical, self.datatype)

    def value(self):
        """The parsed, comparable value (int, Decimal, bool, datetime or str)."""
        return self._value


def _parsed_literal(lexical: str, datatype: str, value) -> Literal:
    """A literal whose value the caller already holds and whose lexical form
    the caller has checked, built without parsing it again."""
    lit = object.__new__(Literal)
    _setattr(lit, "_value", value)
    _setattr(lit, "lexical", lexical)
    _setattr(lit, "datatype", datatype)
    return lit


Term = Union[Iri, Literal]
PatternTerm = Union[Iri, Literal, Variable]


def integer(n: int) -> Literal:
    n = int(n)
    return _parsed_literal(str(n), "integer", n)


def decimal(x) -> Literal:
    d = Decimal(str(x))
    lexical = str(d)  # exact: Decimal(lexical) has d's digits and exponent
    if not _DECIMAL_RE.fullmatch(lexical):  # e.g. "1E+2" or "NaN"
        raise MalformedLiteral(f"bad decimal literal: {lexical!r}")
    return _parsed_literal(lexical, "decimal", d)


def boolean(b: bool) -> Literal:
    return Literal("true" if b else "false", "boolean")


def string(s: str) -> Literal:
    return Literal(s, "string")


@dataclass(frozen=True, slots=True)
class Triple:
    """One statement.  Its hash is computed once, when it is built, and kept
    in a slot that comparison, construction and repr skip: graphs,
    refcounts and fact sets look triples up far more often than they build
    them.  It is hashed from str parts only (the IRIs, and a literal
    object's lexical form and datatype), so building a triple runs no
    Python-level `__hash__`; `__init__` is written out, checks and all, so
    building one is one call.  Like a str's, the hash is valid only in the
    process that made it, so a triple pickles by its three fields alone."""

    subject: Iri
    predicate: Iri
    object: Term
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, subject: Iri, predicate: Iri, object: Term):  # noqa: A002 - the field's name
        if not isinstance(subject, Iri) or not isinstance(predicate, Iri):
            raise MalformedIri("triple subject and predicate must be IRIs")
        if object.__class__ is Literal:
            h = hash((subject, predicate, object.lexical, object.datatype))
        elif isinstance(object, (Iri, Literal)):
            h = hash((subject, predicate, object))
        else:
            raise MalformedIri("triple object must be an IRI or a literal")
        _setattr(self, "subject", subject)
        _setattr(self, "predicate", predicate)
        _setattr(self, "object", object)
        _setattr(self, "_hash", h)

    def __reduce__(self):
        return Triple, (self.subject, self.predicate, self.object)

    def __eq__(self, other) -> bool:
        return self is other or (
            other.__class__ is Triple
            and self._hash == other._hash
            # a tuple compares items that are the same object without calling __eq__
            and (self.subject, self.predicate, self.object)
            == (other.subject, other.predicate, other.object)
        )

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> tuple[Variable, ...]:
        """Variables in subject, predicate, object order (first occurrence)."""
        return pattern_variables((self,))


_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True, slots=True)
class Filter:
    """Comparison of a bound variable against a constant term."""

    var: Variable
    op: str
    value: Term

    def __post_init__(self):
        if not isinstance(self.op, str) or self.op not in _OPS:
            raise ComparisonTypeError(f"unknown operator {self.op!r}")


def compare_terms(left: Term, op: str, right: Term) -> bool:
    """Apply a filter operator; mixing term kinds or datatypes is an error."""
    if isinstance(left, Iri) and isinstance(right, Iri):
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        raise ComparisonTypeError(f"ordering not defined for IRIs ({op})")
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.datatype != right.datatype:
            raise ComparisonTypeError(
                f"cannot compare {left.datatype} with {right.datatype}"
            )
        return _OPS[op](left.value(), right.value())
    raise ComparisonTypeError("cannot compare an IRI with a literal")


class Query:
    """Basic graph pattern query: patterns, filters, projection, graph scope.

    Every selected or filtered variable must occur in some pattern; an empty
    pattern list evaluates to the empty binding set.
    """

    __slots__ = ("select", "where", "filters", "graph_scope", "_plan")

    def __init__(
        self,
        select: Sequence[Variable],
        where: Sequence[TriplePattern],
        filters: Sequence[Filter] = (),
        graph_scope: Iterable[Iri] = (),
    ):
        self.select = tuple(select)
        self.where = tuple(where)
        self.filters = tuple(filters)
        self.graph_scope = frozenset(graph_scope)
        bound = set(pattern_variables(self.where))
        for v in self.select:
            if v not in bound:
                raise UnboundVariable(f"selected variable {v} not in any pattern")
        for f in self.filters:
            if f.var not in bound:
                raise UnboundVariable(f"filter variable {f.var} not in any pattern")
        self._plan = None

    @property
    def plan(self) -> "Plan":
        """The compiled plan, built on the first evaluation and kept, so a
        query object that is only normalized or compared never compiles."""
        if self._plan is None:
            self._plan = Plan(self.where, self.filters)
        return self._plan

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Query)
            and self.select == other.select
            and self.where == other.where
            and self.filters == other.filters
            and self.graph_scope == other.graph_scope
        )

    def __hash__(self) -> int:
        return hash((self.select, self.where, self.filters, self.graph_scope))


@dataclass(frozen=True)
class BindingSet:
    """Query result: an ordered list of rows binding exactly the selected vars.

    `serialized` holds each row's terms serialized.  The evaluator sorts by
    these strings and passes them on, so answering in JSON does not
    serialize again; given None, they are computed here.
    """

    variables: tuple[Variable, ...]
    rows: tuple[tuple[Term, ...], ...]
    serialized: tuple[tuple[str, ...], ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.serialized is None:
            serialized = tuple(tuple(map(serialize_term, row)) for row in self.rows)
            object.__setattr__(self, "serialized", serialized)

    def __len__(self) -> int:
        return len(self.rows)


# --- serialization ----------------------------------------------------------

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


# Datatypes whose checked lexical forms hold no character `_escape` rewrites.
_PLAIN_DATATYPES = frozenset(("integer", "decimal", "boolean"))


def serialize_term(t: PatternTerm) -> str:
    if isinstance(t, Iri):
        return "<" + t + ">"  # an f-string formats a str subclass slowly
    if isinstance(t, Literal):
        if t.datatype in _PLAIN_DATATYPES:
            return '"' + t.lexical + '"^^' + t.datatype
        return f'"{_escape(t.lexical)}"^^{t.datatype}'
    return f"?{t.name}"


def serialize_triple(t: Triple) -> str:
    return f"{serialize_term(t.subject)} {serialize_term(t.predicate)} {serialize_term(t.object)} ."


def term_to_json(t: PatternTerm):
    if isinstance(t, Variable):
        return f"?{t.name}"
    if isinstance(t, Iri):
        return t.value
    return {"type": t.datatype, "value": t.lexical}


def term_from_json(x) -> PatternTerm:
    if isinstance(x, str):
        if x.startswith("?"):
            return Variable(x[1:])
        return Iri(x)
    if isinstance(x, Mapping) and "value" in x:
        return Literal(_lexical_from_json(x["value"]), x.get("type", "string"))
    raise MalformedLiteral(f"unparseable term JSON: {x!r}")


def _lexical_from_json(value) -> str:
    """A literal's lexical form from a JSON string, boolean or number; a
    float in plain decimal notation, so 1e20 reads as 100000000000000000000."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(Decimal(repr(value)), "f")
    raise MalformedLiteral(f"a literal value must be a JSON string, boolean or number, got {value!r}")


def query_to_json(q: Query) -> dict:
    return {
        "select": [f"?{v.name}" for v in q.select],
        "where": [
            [term_to_json(p.subject), term_to_json(p.predicate), term_to_json(p.object)]
            for p in q.where
        ],
        "filters": [
            {"var": f"?{f.var.name}", "op": f.op, "value": term_to_json(f.value)}
            for f in q.filters
        ],
        "graphs": sorted(g.value for g in q.graph_scope),
    }


def _list_field(doc: Mapping, name: str) -> list:
    value = doc.get(name, [])
    if not isinstance(value, list):
        raise MalformedQuery(f"{name} must be a JSON list, got {type(value).__name__}")
    return value


# Where patterns a query document may hold: the query log's signature
# (interop._canonical_query) takes time quadratic in a query's variables.
MAX_QUERY_PATTERNS = 32


def query_from_json(doc: Mapping) -> Query:
    """Build a Query from its JSON document, checking every field's shape."""
    if not isinstance(doc, Mapping):
        raise MalformedQuery(f"a query document must be a JSON object, got {type(doc).__name__}")
    select = [term_from_json(s) for s in _list_field(doc, "select")]
    if not all(isinstance(v, Variable) for v in select):
        raise UnboundVariable("select entries must be ?-prefixed variables")
    entries = _list_field(doc, "where")
    if len(entries) > MAX_QUERY_PATTERNS:
        raise MalformedQuery(
            f"where holds {len(entries)} patterns; a query may hold at most {MAX_QUERY_PATTERNS}"
        )
    where = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise MalformedQuery(f"where entries must be 3-item lists, got {entry!r}")
        s, p, o = entry
        where.append(TriplePattern(term_from_json(s), term_from_json(p), term_from_json(o)))
    filters = []
    for f in _list_field(doc, "filters"):
        if not isinstance(f, Mapping) or not {"var", "op", "value"} <= f.keys():
            raise MalformedQuery(
                f"filters entries must be objects with var, op and value, got {f!r}"
            )
        var = term_from_json(f["var"])
        if not isinstance(var, Variable):
            raise UnboundVariable("filter var must be a ?-prefixed variable")
        value = term_from_json(f["value"])
        if isinstance(value, Variable):
            raise ComparisonTypeError("filter value must be a constant")
        filters.append(Filter(var, f["op"], value))
    graphs = _list_field(doc, "graphs")
    if not all(isinstance(g, str) for g in graphs):
        raise MalformedQuery(f"graphs entries must be IRI strings, got {graphs!r}")
    return Query(select, where, filters, [Iri(g) for g in graphs])


# --- matching and evaluation ------------------------------------------------

class TripleIndex:
    """Immutable index of distinct triples by predicate and by subject.

    The store caches one per named graph and shares it among readers, so
    an index is never mutated once built.  Candidate lists keep the order
    the triples came in, so iteration is deterministic regardless of hash
    seeds.  A `union` repeats a triple that several of its graphs hold.
    """

    def __init__(self, triples: Iterable[Triple]):
        self.triples: list[Triple] = list(triples)
        self.by_predicate: dict[Iri, list[Triple]] = {}
        self.by_subject: dict[Iri, list[Triple]] = {}
        by_p, by_s = self.by_predicate, self.by_subject
        # one lookup per key, and no throwaway list per triple as setdefault makes
        for t in self.triples:
            ts = by_p.get(t.predicate)
            if ts is None:
                by_p[t.predicate] = [t]
            else:
                ts.append(t)
            ts = by_s.get(t.subject)
            if ts is None:
                by_s[t.subject] = [t]
            else:
                ts.append(t)

    @classmethod
    def union(cls, parts: Sequence["TripleIndex"]) -> "TripleIndex":
        """The parts' triples in order, by concatenating their lists."""
        index = cls.__new__(cls)
        index.triples = [t for part in parts for t in part.triples]
        index.by_predicate = _concat([part.by_predicate for part in parts])
        index.by_subject = _concat([part.by_subject for part in parts])
        return index

    def __len__(self) -> int:
        return len(self.triples)

    def terms(self) -> list[Term]:
        """All distinct subjects, predicates and objects, in first occurrence order."""
        seen: dict[Term, None] = {}
        for t in self.triples:
            seen.setdefault(t.subject)
            seen.setdefault(t.predicate)
            seen.setdefault(t.object)
        return list(seen)


def _concat(maps: Sequence[dict[Iri, list[Triple]]]) -> dict[Iri, list[Triple]]:
    out: dict[Iri, list[Triple]] = {}
    for m in maps:
        for key, ts in m.items():
            have = out.get(key)
            out[key] = ts if have is None else have + ts
    return out


Row = tuple[Term, ...]

_POSITIONS = ("subject", "predicate", "object")


def _reader(ref):
    """row -> term, for a slot number (the row's term there) or a constant."""
    if isinstance(ref, int):
        return operator.itemgetter(ref)
    return lambda _row: ref


class _Check:
    """What a candidate triple's already-determined terms must equal: `get`
    reads them from the triple, `want` computes them from the row (one term,
    or a tuple of several); `get` is None when nothing is left to check."""

    __slots__ = ("get", "want")

    def __init__(self, refs: Mapping[str, object]):
        self.get = operator.attrgetter(*refs) if refs else None
        terms = list(refs.values())
        if not any(isinstance(ref, int) for ref in terms):
            want = terms[0] if len(terms) == 1 else tuple(terms)
            self.want = lambda _row: want
        elif len(terms) == 1:
            self.want = operator.itemgetter(terms[0])
        else:
            readers = [_reader(ref) for ref in terms]
            self.want = lambda row: tuple(read(row) for read in readers)


class Step:
    """One pattern compiled against the variables the patterns before it
    bind.  Each position is a constant, a bound variable (a slot of the
    row), a new variable, or a new variable repeated within the pattern;
    so whether the subject and predicate are bound is known statically."""

    __slots__ = ("subject", "predicate", "by_subject", "by_predicate", "scan",
                 "repeats", "take", "width")

    def __init__(self, pattern: TriplePattern, slots: dict[Variable, int]):
        refs: dict[str, object] = {}  # position -> slot number or constant
        first: dict[Variable, str] = {}  # new variable -> its first position
        repeats = []
        for pos in _POSITIONS:
            term = getattr(pattern, pos)
            if not isinstance(term, Variable):
                refs[pos] = term
            elif term in slots:
                refs[pos] = slots[term]
            elif term in first:
                repeats.append((pos, first[term]))
            else:
                first[term] = pos
        for var in first:
            slots[var] = len(slots)
        # Each bound key gets a reader and the check its candidate list still
        # needs, which leaves out the key itself; with neither bound, the
        # step scans every triple.
        self.subject = self.predicate = self.by_subject = self.by_predicate = self.scan = None
        if "subject" in refs:
            self.subject = _reader(refs["subject"])
            self.by_subject = _Check({p: r for p, r in refs.items() if p != "subject"})
        if "predicate" in refs:
            self.predicate = _reader(refs["predicate"])
            self.by_predicate = _Check({p: r for p, r in refs.items() if p != "predicate"})
        if self.subject is None and self.predicate is None:
            self.scan = _Check(refs)
        self.repeats = tuple(repeats)
        self.take = operator.attrgetter(*first.values()) if first else None
        self.width = len(first)

    def candidates(self, index: TripleIndex, row: Row) -> tuple[Sequence[Triple], _Check]:
        """The triples this pattern can match under row, with the check they
        still need: the shorter of the bound subject's and the bound
        predicate's lists, or all triples."""
        if self.subject is not None:
            by_s = index.by_subject.get(self.subject(row), ())
            if self.predicate is not None:
                by_p = index.by_predicate.get(self.predicate(row), ())
                if len(by_p) < len(by_s):
                    return by_p, self.by_predicate
            return by_s, self.by_subject
        if self.predicate is not None:
            return index.by_predicate.get(self.predicate(row), ()), self.by_predicate
        return index.triples, self.scan

    def join(self, index: TripleIndex, row: Row, out: list[Row]) -> None:
        """Append to out the row extended by each match's new terms."""
        cands, check = self.candidates(index, row)
        if check.get is not None:
            get, want = check.get, check.want(row)
            cands = [t for t in cands if get(t) == want]
        if self.repeats:
            cands = [
                t for t in cands
                if all(getattr(t, a) == getattr(t, b) for a, b in self.repeats)
            ]
        take = self.take
        if self.width == 1:
            out.extend([row + (take(t),) for t in cands])
        elif self.width:
            out.extend([row + take(t) for t in cands])
        else:
            out.extend([row] * len(cands))


def _join_order(patterns: Sequence[TriplePattern]) -> list[TriplePattern]:
    """The patterns in the order a plan joins them.  Each next pattern is
    the first, in written order, of those that score highest on: sharing a
    variable with the patterns already placed, then a determined subject or
    predicate, then the number of determined positions; a position is
    determined by a constant or by a variable already bound.  The order is
    static and reads no statistics, so it costs one pass per pattern, and
    a pattern that shares no variable is joined only when none is left
    that does."""
    left = list(patterns)
    placed: list[TriplePattern] = []
    bound: set[Variable] = set()

    def score(p: TriplePattern) -> tuple[bool, bool, int]:
        terms = (p.subject, p.predicate, p.object)
        determined = [not isinstance(t, Variable) or t in bound for t in terms]
        return any(t in bound for t in terms), determined[0] or determined[1], sum(determined)

    while left:
        best = max(left, key=score)  # max keeps the first of equal scores
        left.remove(best)
        placed.append(best)
        bound.update(best.variables())
    return placed


class Plan:
    """A pattern list and its filters, compiled once into steps that join
    left to right on tuple rows, in `_join_order`: row i holds the term of
    `variables[i]`, the variables in first-occurrence order of that join.
    Each filter's constant is parsed here, not per row."""

    __slots__ = ("variables", "steps", "filters")

    def __init__(self, patterns: Sequence[TriplePattern], filters: Sequence[Filter] = ()):
        slots: dict[Variable, int] = {}
        self.steps = tuple(Step(p, slots) for p in _join_order(patterns))
        self.variables = tuple(slots)
        self.filters = tuple(
            (slots[f.var], f, _OPS[f.op],
             f.value.value() if isinstance(f.value, Literal) else None)
            for f in filters
        )

    def binding(self, row: Row) -> dict[Variable, Term]:
        return dict(zip(self.variables, row))

    def passes(self, row: Row) -> bool:
        """Whether row satisfies every filter, tried in order; a comparison
        across kinds or datatypes raises as compare_terms does."""
        for slot, f, op, right in self.filters:
            left = row[slot]
            if right is not None and type(left) is Literal and left.datatype == f.value.datatype:
                if not op(left.value(), right):
                    return False
            elif not compare_terms(left, f.op, f.value):
                return False
        return True


def solve(plan: Plan, indexes: Sequence[TripleIndex]) -> list[Row]:
    """Join the plan's steps left to right, each against its own index.

    Returns the complete rows that satisfy every filter, in a deterministic
    order derived from index insertion order.  A join step that holds more
    than MAX_BINDINGS rows raises BindingLimitExceeded; the count is checked
    after each partial row's candidates, so at most one candidate list past
    the limit is ever joined.
    """
    rows: list[Row] = [()]
    for step, index in zip(plan.steps, indexes):
        nxt: list[Row] = []
        for row in rows:
            step.join(index, row, nxt)
            if len(nxt) > MAX_BINDINGS:
                raise BindingLimitExceeded(
                    f"query needs more than {MAX_BINDINGS} intermediate bindings"
                )
        rows = nxt
        if not rows:
            return []
    if plan.filters:
        return [row for row in rows if plan.passes(row)]
    return rows


def pattern_variables(patterns: Iterable[TriplePattern]) -> tuple[Variable, ...]:
    """The patterns' variables in first-occurrence order."""
    return tuple(dict.fromkeys(
        t
        for p in patterns
        for t in (p.subject, p.predicate, p.object)
        if isinstance(t, Variable)
    ))


def _projection(slots: Sequence[int]):
    """row -> the tuple of its terms at slots."""
    if len(slots) == 1:
        k = slots[0]
        return lambda row: (row[k],)
    return operator.itemgetter(*slots) if slots else lambda _row: ()


def ordered_distinct(rows: Iterable[Row]) -> list[tuple[tuple[str, ...], Row]]:
    """The distinct rows as (serialized terms, row) pairs, in the order of
    those strings, which no hash seed moves.  Serialization is one-to-one
    on terms, so the strings also key the dedupe."""
    return sorted({tuple(map(serialize_term, row)): row for row in rows}.items())


def instantiate(template: Sequence[PatternTerm], binding: Mapping[Variable, Term]) -> Triple:
    """The triple a (subject, predicate, object) template makes under binding."""
    s, p, o = (binding[t] if isinstance(t, Variable) else t for t in template)
    return Triple(s, p, o)


def solve_query(index: TripleIndex, q: Query) -> BindingSet:
    """Evaluate a query against a snapshot: join, filter, project, dedupe, sort."""
    if not q.where:
        return BindingSet(q.select, ())
    plan = q.plan
    rows = solve(plan, [index] * len(plan.steps))
    ordered = ordered_distinct(map(_projection([plan.variables.index(v) for v in q.select]), rows))
    return BindingSet(
        q.select, tuple(row for _, row in ordered), tuple(key for key, _ in ordered)
    )


class GraphStore:
    """Named graphs of triples with set semantics.

    The store keeps one `TripleIndex` per named graph, built on the first
    snapshot that covers the graph and dropped by any write to it, so a
    graph is re-indexed only after it changed.  Snapshots share the cached
    indexes, which are never mutated: a snapshot taken before a write keeps
    what it held.  The store takes no lock; the gateway makes every call
    that reaches it from its one serving thread.
    """

    def __init__(self):
        self._graphs: dict[Iri, dict[Triple, None]] = {}
        self._indexes: dict[Iri, TripleIndex] = {}

    def insert(self, graph: Iri, t: Triple) -> bool:
        """Insert t; True iff it was not already present. Creates the graph."""
        g = self._graphs.setdefault(graph, {})
        if t in g:
            return False
        g[t] = None
        self._indexes.pop(graph, None)
        return True

    def remove(self, graph: Iri, t: Triple) -> bool:
        g = self._graphs.get(graph)
        if g is None or t not in g:
            return False
        del g[t]
        self._indexes.pop(graph, None)
        return True

    def remove_all(self, graph: Iri, triples: Iterable[Triple]) -> None:
        """Remove every one of `triples` that the graph holds."""
        g = self._graphs.get(graph)
        if g is None:
            return
        size = len(g)
        for t in triples:
            g.pop(t, None)
        if len(g) < size:
            self._indexes.pop(graph, None)

    def insert_all(self, graph: Iri, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number actually added.  As with
        `insert`, the graph comes into being with its first triple, and its
        cached index is dropped only when something was added."""
        g = self._graphs.get(graph, {})
        size = len(g)
        try:
            for t in triples:
                g.setdefault(t)
        finally:  # if `triples` raises part way, what it added stays and is indexed anew
            added = len(g) - size
            if added:
                self._graphs[graph] = g
                self._indexes.pop(graph, None)
        return added

    def graphs(self) -> list[Iri]:
        return sorted(self._graphs)

    def has_graph(self, graph: Iri) -> bool:
        return graph in self._graphs

    def graph_size(self, graph: Iri) -> int:
        return len(self._graphs.get(graph, {}))

    def contains(self, graph: Iri, t: Triple) -> bool:
        return t in self._graphs.get(graph, {})

    def triples(self, graph: Iri) -> list[Triple]:
        return list(self._graphs.get(graph, {}))

    def _index(self, graph: Iri) -> TripleIndex:
        """The cached index of one graph.  Names of absent graphs are not
        cached, so queries naming unknown graphs cannot grow the cache."""
        index = self._indexes.get(graph)
        if index is None:
            g = self._graphs.get(graph)
            if g is None:
                return TripleIndex(())
            index = self._indexes[graph] = TripleIndex(g)
        return index

    def snapshot(self, scope: Iterable[Iri] | None = None) -> TripleIndex:
        """Snapshot of the scoped graphs (all graphs when empty): a graph's
        cached index itself, or the union of several in graph name order."""
        names = sorted(scope) if scope else sorted(self._graphs)
        parts = [self._index(name) for name in names]
        return parts[0] if len(parts) == 1 else TripleIndex.union(parts)

    def evaluate(self, q: Query) -> BindingSet:
        return solve_query(self.snapshot(q.graph_scope), q)
