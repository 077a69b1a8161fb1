"""Minimal in-memory semantic store.

IRIs, typed literals, triples grouped into named graphs, triple-pattern
matching, and a select-style query evaluator (conjunctive patterns joined
naturally, comparison filters, projection with deterministic row order).
There are no blank nodes, no inference, and exactly five literal datatypes;
this keeps query results exactly reproducible and easy to cross-check
against brute-force enumeration.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    ComparisonTypeError,
    MalformedIri,
    MalformedLiteral,
    MalformedQuery,
    UnboundVariable,
)

DATATYPES = ("string", "integer", "decimal", "boolean", "dateTime")

_INTEGER_RE = re.compile(r"^[+-]?\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")


@dataclass(frozen=True, slots=True)
class Iri:
    """Absolute IRI; equality is exact string equality."""

    value: str

    def __post_init__(self):
        v = self.value
        if not v or ":" not in v or any(c.isspace() for c in v):
            raise MalformedIri(f"not an absolute IRI: {v!r}")

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other: "Iri") -> bool:
        return self.value < other.value


@dataclass(frozen=True, slots=True)
class Variable:
    """Query variable; the name never contains a scheme separator."""

    name: str

    def __post_init__(self):
        n = self.name
        if not n or ":" in n or any(c.isspace() for c in n):
            raise MalformedIri(f"not a valid variable name: {n!r}")

    def __str__(self) -> str:
        return f"?{self.name}"


def _parse_literal(lexical: str, datatype: str):
    if datatype == "string":
        return lexical
    if datatype == "integer":
        if not _INTEGER_RE.match(lexical):
            raise MalformedLiteral(f"bad integer literal: {lexical!r}")
        return int(lexical)
    if datatype == "decimal":
        if not _DECIMAL_RE.match(lexical):
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


@dataclass(frozen=True, slots=True)
class Literal:
    """Typed literal; the lexical form must parse under its datatype."""

    lexical: str
    datatype: str = "string"

    def __post_init__(self):
        _parse_literal(self.lexical, self.datatype)

    def value(self):
        """The parsed, comparable value (int, Decimal, bool, datetime or str)."""
        return _parse_literal(self.lexical, self.datatype)


Term = Union[Iri, Literal]
PatternTerm = Union[Iri, Literal, Variable]


def integer(n: int) -> Literal:
    return Literal(str(int(n)), "integer")


def decimal(x) -> Literal:
    return Literal(str(Decimal(str(x))), "decimal")


def boolean(b: bool) -> Literal:
    return Literal("true" if b else "false", "boolean")


def string(s: str) -> Literal:
    return Literal(s, "string")


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term

    def __post_init__(self):
        if not isinstance(self.subject, Iri) or not isinstance(self.predicate, Iri):
            raise MalformedIri("triple subject and predicate must be IRIs")
        if not isinstance(self.object, (Iri, Literal)):
            raise MalformedIri("triple object must be an IRI or a literal")


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> tuple[Variable, ...]:
        """Variables in subject, predicate, object order (first occurrence)."""
        seen: dict[Variable, None] = {}
        for t in (self.subject, self.predicate, self.object):
            if isinstance(t, Variable):
                seen.setdefault(t)
        return tuple(seen)


_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class Filter:
    """Comparison of a bound variable against a constant term."""

    var: Variable
    op: str
    value: Term

    def __post_init__(self):
        if self.op not in _OPS:
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
        a, b = left.value(), right.value()
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    raise ComparisonTypeError("cannot compare an IRI with a literal")


class Query:
    """Basic graph pattern query: patterns, filters, projection, graph scope.

    Every selected or filtered variable must occur in some pattern; an empty
    pattern list evaluates to the empty binding set.
    """

    __slots__ = ("select", "where", "filters", "graph_scope")

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
        bound = {v for p in self.where for v in p.variables()}
        for v in self.select:
            if v not in bound:
                raise UnboundVariable(f"selected variable {v} not in any pattern")
        for f in self.filters:
            if f.var not in bound:
                raise UnboundVariable(f"filter variable {f.var} not in any pattern")

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
    """Query result: an ordered list of rows binding exactly the selected vars."""

    variables: tuple[Variable, ...]
    rows: tuple[tuple[Term, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)


# --- serialization ----------------------------------------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(s: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in s)


def serialize_term(t: PatternTerm) -> str:
    if isinstance(t, Iri):
        return f"<{t.value}>"
    if isinstance(t, Literal):
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
        return Literal(str(x["value"]), x.get("type", "string"))
    raise MalformedLiteral(f"unparseable term JSON: {x!r}")


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


def query_from_json(doc: Mapping) -> Query:
    """Build a Query from its JSON document, checking every field's shape."""
    if not isinstance(doc, Mapping):
        raise MalformedQuery(f"a query document must be a JSON object, got {type(doc).__name__}")
    select = [term_from_json(s) for s in _list_field(doc, "select")]
    if not all(isinstance(v, Variable) for v in select):
        raise UnboundVariable("select entries must be ?-prefixed variables")
    where = []
    for entry in _list_field(doc, "where"):
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


def binding_set_to_json(bs: BindingSet) -> dict:
    return {
        "variables": [f"?{v.name}" for v in bs.variables],
        "rows": [[term_to_json(t) for t in row] for row in bs.rows],
    }


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
        for t in self.triples:
            self.by_predicate.setdefault(t.predicate, []).append(t)
            self.by_subject.setdefault(t.subject, []).append(t)

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

    def __contains__(self, t: Triple) -> bool:
        return t in self.by_subject.get(t.subject, ())

    def candidates(self, pattern: TriplePattern, binding: Mapping[Variable, Term]) -> list[Triple]:
        """The triples pattern can match: the shorter of the bound subject's
        and the bound predicate's lists, or all triples."""
        s = _resolve(pattern.subject, binding)
        p = _resolve(pattern.predicate, binding)
        if isinstance(s, Iri):
            by_s = self.by_subject.get(s, [])
            if isinstance(p, Iri):
                by_p = self.by_predicate.get(p, [])
                return by_p if len(by_p) < len(by_s) else by_s
            return by_s
        if isinstance(p, Iri):
            return self.by_predicate.get(p, [])
        return self.triples

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


def _resolve(pt: PatternTerm, binding: Mapping[Variable, Term]):
    if isinstance(pt, Variable):
        return binding.get(pt)
    return pt


def unify(pattern: TriplePattern, t: Triple, binding: Mapping[Variable, Term]):
    """Extend binding so pattern matches t, or return None."""
    b = dict(binding)
    for pt, tt in (
        (pattern.subject, t.subject),
        (pattern.predicate, t.predicate),
        (pattern.object, t.object),
    ):
        if isinstance(pt, Variable):
            bound = b.get(pt)
            if bound is None:
                b[pt] = tt
            elif bound != tt:
                return None
        elif pt != tt:
            return None
    return b


def solve(
    patterns: Sequence[TriplePattern],
    indexes: Sequence[TripleIndex],
    filters: Sequence[Filter] = (),
) -> list[dict[Variable, Term]]:
    """Join patterns left to right against per-pattern indexes.

    Returns complete bindings that satisfy every filter, in a deterministic
    order derived from index insertion order.
    """
    partials: list[dict[Variable, Term]] = [{}]
    for pattern, index in zip(patterns, indexes):
        nxt: list[dict[Variable, Term]] = []
        for b in partials:
            for t in index.candidates(pattern, b):
                nb = unify(pattern, t, b)
                if nb is not None:
                    nxt.append(nb)
        partials = nxt
        if not partials:
            return []
    out = []
    for b in partials:
        if all(compare_terms(b[f.var], f.op, f.value) for f in filters):
            out.append(b)
    return out


def solve_query(index: TripleIndex, q: Query) -> BindingSet:
    """Evaluate a query against a snapshot: join, filter, project, dedupe, sort."""
    if not q.where:
        return BindingSet(q.select, ())
    bindings = solve(q.where, [index] * len(q.where), q.filters)
    projected = {tuple(b[v] for v in q.select) for b in bindings}
    rows = sorted(projected, key=lambda r: tuple(serialize_term(t) for t in r))
    return BindingSet(q.select, tuple(rows))


class GraphStore:
    """Named graphs of triples with set semantics.

    All mutation happens under one lock.  The store keeps one `TripleIndex`
    per named graph, built on the first snapshot that covers the graph and
    dropped by any write to it, so a graph is re-indexed only after it
    changed.  Readers share the cached indexes, which are never mutated:
    a snapshot taken before a write keeps what it held, and readers never
    observe a half-applied update.
    """

    def __init__(self):
        self._graphs: dict[Iri, dict[Triple, None]] = {}
        self._indexes: dict[Iri, TripleIndex] = {}
        self._lock = threading.RLock()

    def insert(self, graph: Iri, t: Triple) -> bool:
        """Insert t; True iff it was not already present. Creates the graph."""
        with self._lock:
            g = self._graphs.setdefault(graph, {})
            if t in g:
                return False
            g[t] = None
            self._indexes.pop(graph, None)
            return True

    def remove(self, graph: Iri, t: Triple) -> bool:
        with self._lock:
            g = self._graphs.get(graph)
            if g is None or t not in g:
                return False
            del g[t]
            self._indexes.pop(graph, None)
            return True

    def insert_all(self, graph: Iri, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number actually added."""
        added = 0
        with self._lock:
            for t in triples:
                if self.insert(graph, t):
                    added += 1
        return added

    def clear_graph(self, graph: Iri) -> None:
        with self._lock:
            self._graphs.pop(graph, None)
            self._indexes.pop(graph, None)

    def graphs(self) -> list[Iri]:
        with self._lock:
            return sorted(self._graphs)

    def has_graph(self, graph: Iri) -> bool:
        with self._lock:
            return graph in self._graphs

    def graph_size(self, graph: Iri) -> int:
        with self._lock:
            return len(self._graphs.get(graph, {}))

    def contains(self, graph: Iri, t: Triple) -> bool:
        with self._lock:
            return t in self._graphs.get(graph, {})

    def triples(self, graph: Iri) -> list[Triple]:
        with self._lock:
            return list(self._graphs.get(graph, {}))

    def _index(self, graph: Iri) -> TripleIndex:
        """The cached index of one graph; call with the lock held.  Names
        of absent graphs are not cached, so queries naming unknown graphs
        cannot grow the cache."""
        index = self._indexes.get(graph)
        if index is None:
            g = self._graphs.get(graph)
            if g is None:
                return TripleIndex(())
            index = self._indexes[graph] = TripleIndex(g)
        return index

    def snapshot(self, scope: Iterable[Iri] | None = None) -> TripleIndex:
        """Consistent snapshot of the scoped graphs (all graphs when empty):
        a graph's cached index itself, or the union of several in graph
        name order."""
        with self._lock:
            names = sorted(scope) if scope else sorted(self._graphs)
            parts = [self._index(name) for name in names]
        return parts[0] if len(parts) == 1 else TripleIndex.union(parts)

    def match(self, scope: Iterable[Iri] | None, pattern: TriplePattern) -> BindingSet:
        """One row per scoped triple unifying with the pattern."""
        index = self.snapshot(scope)
        variables = pattern.variables()
        rows = {
            tuple(b[v] for v in variables)
            for b in solve([pattern], [index])
        }
        ordered = sorted(rows, key=lambda r: tuple(serialize_term(t) for t in r))
        return BindingSet(variables, tuple(ordered))

    def evaluate(self, q: Query) -> BindingSet:
        return solve_query(self.snapshot(q.graph_scope), q)
