"""Cross-domain interoperability services.

Six small services mitigate heterogeneity between domains: relational→triple
translation, ontology annotation, concept alignment, description validation,
last-writer-wins synchronization into a central graph, and query processing
backed by a signature-keyed query log.  All of them are pure functions or
store-transactional; the `InteropServices` facade adds invocation counters so
callers can prove which services ran.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import vocab
from .errors import DatatypeMismatch, TableMismatch
from .semantic import (
    DATATYPES,
    BindingSet,
    Filter,
    GraphStore,
    Iri,
    Literal,
    Query,
    Term,
    Triple,
    TriplePattern,
    Variable,
    serialize_term,
)

# --- relational translation -------------------------------------------------

@dataclass(frozen=True)
class RelationalRecord:
    """One row from a domain-local relational source."""

    table: str
    primary_key: str
    columns: Mapping[str, object]

    def __post_init__(self):
        if not self.table:
            raise TableMismatch("record has an empty table name")
        if self.primary_key not in self.columns:
            raise TableMismatch(
                f"primary key column {self.primary_key!r} missing from record"
            )


@dataclass(frozen=True)
class TranslationMapping:
    name: str
    table: str
    class_iri: Iri
    subject_template: str
    column_map: tuple[tuple[str, Iri, str], ...]  # (column, predicate, datatype)

    def __post_init__(self):
        if "{pk}" not in self.subject_template:
            raise TableMismatch(
                f"subject template {self.subject_template!r} lacks {{pk}}"
            )
        for column, _pred, datatype in self.column_map:
            if datatype not in DATATYPES:
                raise DatatypeMismatch(column, f"unsupported datatype {datatype!r}")


def _scalar_lexical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def translate_relational(
    records: Sequence[RelationalRecord], m: TranslationMapping
) -> list[Triple]:
    """Map relational rows onto typed triples, in record then column order."""
    out: list[Triple] = []
    for rec in records:
        if rec.table != m.table:
            raise TableMismatch(
                f"record table {rec.table!r} does not match mapping table {m.table!r}"
            )
        pk_value = _scalar_lexical(rec.columns[rec.primary_key])
        subject = Iri(m.subject_template.replace("{pk}", pk_value))
        out.append(Triple(subject, vocab.TYPE, m.class_iri))
        for column, predicate, datatype in m.column_map:
            if column not in rec.columns:
                continue
            value = rec.columns[column]
            if value is None:
                continue
            try:
                lit = Literal(_scalar_lexical(value), datatype)
            except Exception as exc:
                raise DatatypeMismatch(column, str(exc)) from exc
            out.append(Triple(subject, predicate, lit))
    return out


# --- annotation -------------------------------------------------------------

@dataclass(frozen=True)
class PredicateSpec:
    """Schema for one predicate: its subject class, range, and whether the
    latest value supersedes earlier ones during synchronization."""

    domain_class: Iri
    range_kind: str  # "iri" or a literal datatype name
    functional: bool = False


@dataclass(frozen=True)
class OntologyContext:
    name: str
    classes: frozenset[Iri]
    predicates: Mapping[Iri, PredicateSpec]

    def __post_init__(self):
        for pred, spec in self.predicates.items():
            if spec.domain_class != vocab.ANY_CLASS and spec.domain_class not in self.classes:
                raise TableMismatch(
                    f"predicate {pred} declares unknown domain class {spec.domain_class}"
                )


def annotate(triples: Sequence[Triple], ctx: OntologyContext) -> list[Triple]:
    """Input plus one conformsTo triple per subject typed with a ctx class,
    unless the input already links that subject."""
    target = vocab.ontology_iri(ctx.name)
    conforms, typ, classes = vocab.CONFORMS_TO, vocab.TYPE, ctx.classes
    linked = {t.subject for t in triples if t.predicate == conforms and t.object == target}
    subjects = dict.fromkeys(
        t.subject for t in triples
        if t.predicate == typ and t.object in classes and t.subject not in linked
    )
    return list(triples) + [Triple(s, conforms, target) for s in subjects]


# --- alignment --------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentMap:
    """Concept correspondences between a domain vocabulary and the shared one.

    Equivalences are compressed to their terminal targets at construction so
    one rewrite pass reaches the fixpoint (and cycles are caught early).
    """

    name: str
    equivalent: Mapping[Iri, Iri]
    subsumed_by: Mapping[Iri, Iri]

    @staticmethod
    def build(
        name: str,
        correspondences: Iterable[tuple[Iri, Iri, str]],
    ) -> "AlignmentMap":
        equivalent: dict[Iri, Iri] = {}
        subsumed: dict[Iri, Iri] = {}
        for source, target, relation in correspondences:
            if relation == "equivalent":
                if source in equivalent and equivalent[source] != target:
                    raise ValueError(
                        f"{name}: {source} has two equivalent targets"
                    )
                equivalent[source] = target
            elif relation == "subsumedBy":
                subsumed[source] = target
            else:
                raise ValueError(f"{name}: unknown relation {relation!r}")
        compressed: dict[Iri, Iri] = {}
        for source in equivalent:
            seen = {source}
            target = equivalent[source]
            while target in equivalent:
                if target in seen:
                    raise ValueError(f"{name}: equivalence cycle at {target}")
                seen.add(target)
                target = equivalent[target]
            compressed[source] = target
        return AlignmentMap(name, compressed, subsumed)


def align(triples: Sequence[Triple], a: AlignmentMap) -> list[Triple]:
    """Rewrite equivalent concepts, then add parallel triples for subsumption.

    Concepts are recognized in predicate position and in the class position
    (the object of a type triple); subjects are never rewritten.
    """
    rewritten: list[Triple] = []
    for t in triples:
        predicate = a.equivalent.get(t.predicate, t.predicate)
        obj: Term = t.object
        if t.predicate == vocab.TYPE and isinstance(obj, Iri):
            obj = a.equivalent.get(obj, obj)
        if predicate is t.predicate and obj is t.object:
            rewritten.append(t)
        else:
            rewritten.append(Triple(t.subject, predicate, obj))
    if not a.subsumed_by:
        return rewritten

    present = set(rewritten)
    parallel: dict[Triple, None] = {}
    for t in rewritten:
        if t.predicate in a.subsumed_by:
            extra = Triple(t.subject, a.subsumed_by[t.predicate], t.object)
            if extra not in present:
                parallel.setdefault(extra)
        if t.predicate == vocab.TYPE and isinstance(t.object, Iri) and t.object in a.subsumed_by:
            extra = Triple(t.subject, vocab.TYPE, a.subsumed_by[t.object])
            if extra not in present:
                parallel.setdefault(extra)
    return rewritten + list(parallel)


# --- validation -------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    triple: Triple
    reason: str  # unknown-class | unknown-predicate | domain-mismatch | range-mismatch


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


def validate_description(
    triples: Sequence[Triple], ctx: OntologyContext
) -> ValidationReport:
    """Check every triple against the context's class and predicate tables."""
    types_of: dict[Iri, set[Iri]] = {}
    for t in triples:
        if t.predicate == vocab.TYPE and isinstance(t.object, Iri):
            types_of.setdefault(t.subject, set()).add(t.object)

    violations: list[Violation] = []
    for t in triples:
        if t.predicate == vocab.TYPE:
            if not isinstance(t.object, Iri) or t.object not in ctx.classes:
                violations.append(Violation(t, "unknown-class"))
            continue
        if t.predicate == vocab.CONFORMS_TO:
            continue
        spec = ctx.predicates.get(t.predicate)
        if spec is None:
            violations.append(Violation(t, "unknown-predicate"))
            continue
        subject_types = types_of.get(t.subject)
        if (
            subject_types is not None
            and spec.domain_class != vocab.ANY_CLASS
            and spec.domain_class not in subject_types
        ):
            violations.append(Violation(t, "domain-mismatch"))
        if spec.range_kind == "iri":
            if not isinstance(t.object, Iri):
                violations.append(Violation(t, "range-mismatch"))
        else:
            if not isinstance(t.object, Literal) or t.object.datatype != spec.range_kind:
                violations.append(Violation(t, "range-mismatch"))
    return ValidationReport(not violations, tuple(violations))


# --- synchronization --------------------------------------------------------

@dataclass
class SyncSummary:
    added: int = 0
    superseded: int = 0
    unchanged: int = 0
    skew_rejected: int = 0


SKEW_WINDOW_MS = 300_000


class Synchronizer:
    """Merge incoming batches into central graphs.

    Functional predicates follow last-writer-wins keyed on the batch
    timestamp; everything else is set-unioned, in one `insert_all` per
    batch.  A stale value older than the stored one by more than the skew
    window is flagged (and still counted as unchanged) rather than raised —
    cross-domain clocks drift, and dropping the batch would lose the rest
    of it.
    """

    def __init__(self, store: GraphStore, functional: Iterable[Iri] = ()):
        self._store = store
        self._functional = frozenset(functional)
        # (central graph, subject, predicate) -> (current object, batch ts)
        self._state: dict[tuple[Iri, Iri, Iri], tuple[Term, int]] = {}

    def synchronize(
        self,
        incoming: Sequence[Triple],
        central_graph: Iri,
        observed_at_ms: int,
    ) -> SyncSummary:
        summary = SyncSummary()
        functional = self._functional
        unioned = [t for t in incoming if t.predicate not in functional]
        summary.added = self._store.insert_all(central_graph, unioned)
        summary.unchanged = len(unioned) - summary.added
        for t in incoming:
            if t.predicate not in functional:
                continue
            key = (central_graph, t.subject, t.predicate)
            current = self._state.get(key)
            if current is None:
                self._store.insert(central_graph, t)
                self._state[key] = (t.object, observed_at_ms)
                summary.added += 1
                continue
            value, ts = current
            if t.object == value:
                if observed_at_ms > ts:
                    self._state[key] = (value, observed_at_ms)
                summary.unchanged += 1
                continue
            if observed_at_ms > ts:
                self._store.remove(central_graph, Triple(t.subject, t.predicate, value))
                self._store.insert(central_graph, t)
                self._state[key] = (t.object, observed_at_ms)
                summary.superseded += 1
            else:
                summary.unchanged += 1
                if ts - observed_at_ms > SKEW_WINDOW_MS:
                    summary.skew_rejected += 1
        return summary

    def evict(self, central_graph: Iri, triples: Sequence[Triple]) -> None:
        """Take back from `central_graph` what synchronizing `triples` put
        there: each set-unioned triple, and for each functional (subject,
        predicate) its current value and its state."""
        gone = []
        for t in triples:
            if t.predicate in self._functional:
                current = self._state.pop((central_graph, t.subject, t.predicate), None)
                if current is None:
                    continue
                t = Triple(t.subject, t.predicate, current[0])
            gone.append(t)
        self._store.remove_all(central_graph, gone)


# --- query log --------------------------------------------------------------

def _ranks(keys: dict) -> tuple[dict, int]:
    """Each key's rank among the distinct keys, and how many there are."""
    distinct = sorted(set(keys.values()))
    rank = {k: i for i, k in enumerate(distinct)}
    return {v: rank[k] for v, k in keys.items()}, len(distinct)


def _colours(start: dict, terms: list, occurs: dict) -> dict[str, int]:
    """Colours 0..n-1, one per variable, for one connected set of variables:
    ranks of their `start` keys, refined by the patterns each occurs in."""
    colour, count = _ranks(start)
    while count < len(colour):
        refined, more = _ranks({
            v: (colour[v], tuple(sorted([
                tuple([t if t[0] != "?" else "?" if t == v else f"?{colour[t]}" for t in terms[i]])
                for i in occurs[v]
            ])))
            for v in colour
        })
        if more == count:  # stable with ties
            tied = sorted(refined.values())
            least = next(a for a, b in zip(tied, tied[1:]) if a == b)
            alone = next(v for v, c in refined.items() if c == least)
            refined, more = _ranks({v: (c, v == alone) for v, c in refined.items()})
        colour, count = refined, more
    return colour


def _canonical_query(q: Query) -> tuple[Query, str]:
    """Normalize to a canonical variant: variables renamed ?v<n>, patterns
    sorted by their renamed text, filters sorted.  Returns (normalized
    query, signature hash).

    Each connected set of variables is coloured apart by colour refinement
    (one-dimensional Weisfeiler-Leman): a variable starts from its select
    positions and filters, and each round recolours it by the constants and
    the other variables' colours of the patterns it occurs in.  Colours are
    ranks of sorted keys, which no name, pattern order or hash seed moves.
    While refinement is stable with ties, the first variable of the least
    tied colour gets its own colour.  The sets are numbered in the order of
    their renamed patterns, so a tie broken in one never moves another.  The
    signature hashes the renamed query, so different queries never share
    one; only a tie within one set that no symmetry of the query exchanges
    can give one query two."""
    # each pattern's serialized terms, a variable's starting with "?"
    terms = [tuple(map(serialize_term, (p.subject, p.predicate, p.object))) for p in q.where]
    occurs: dict[str, list[int]] = {}  # variable -> the patterns it occurs in
    for i, ts in enumerate(terms):
        for t in ts:
            if t[0] == "?":
                occurs.setdefault(t, []).append(i)
    select = [f"?{v.name}" for v in q.select]
    starts: dict[str, tuple[list, list]] = {v: ([], []) for v in occurs}
    for i, v in enumerate(select):
        starts[v][0].append(i)
    for v, op, value in sorted([(f"?{f.var.name}", f.op, serialize_term(f.value)) for f in q.filters]):
        starts[v][1].append((op, value))
    start = {v: (tuple(at), tuple(found)) for v, (at, found) in starts.items()}

    parts = []  # (sort key, variables in colour order) per connected set
    seen: set[str] = set()
    for v in occurs:
        if v in seen:
            continue
        part, within = [v], set()
        seen.add(v)
        for u in part:  # grows while it is walked
            for i in occurs[u]:
                within.add(i)
                for t in terms[i]:
                    if t[0] == "?" and t not in seen:
                        seen.add(t)
                        part.append(t)
        colour = _colours({u: start[u] for u in part}, terms, occurs)
        texts = sorted([" ".join([f"?{colour[t]}" if t[0] == "?" else t for t in terms[i]]) for i in within])
        order = sorted(part, key=colour.__getitem__)
        parts.append(((texts, [start[u] for u in order]), order))
    parts.sort(key=lambda e: e[0])
    names = {v: f"?v{n}" for n, v in enumerate([u for _, order in parts for u in order])}

    renamed = {v: Variable(name[1:]) for v, name in names.items()}
    texts = [" ".join([names.get(t, t) for t in ts]) for ts in terms]
    patterns = [
        TriplePattern(*[
            renamed.get(t, term) for t, term in zip(terms[i], (p.subject, p.predicate, p.object))
        ])
        for i, p in sorted(enumerate(q.where), key=lambda e: texts[e[0]])
    ]
    filters = sorted(
        [Filter(renamed[f"?{f.var.name}"], f.op, f.value) for f in q.filters],
        key=lambda f: (f.var.name, f.op, serialize_term(f.value)),
    )
    normalized = Query([renamed[v] for v in select], patterns, filters, q.graph_scope)

    # repr of lists of strings is one-to-one, so equal bases mean equal queries
    basis = repr((
        [v.name for v in normalized.select],
        sorted(texts),
        [[f.var.name, f.op, serialize_term(f.value)] for f in filters],
        sorted([g.value for g in q.graph_scope]),
    ))
    return normalized, hashlib.sha256(basis.encode()).hexdigest()


def query_signature(q: Query) -> str:
    return _canonical_query(q)[1]


# Signatures a query log holds; a server answering arbitrary clients would
# otherwise keep every distinct query it was ever sent.
QUERY_LOG_CAPACITY = 1024


class QueryLog:
    """Signature -> normalized query, the first one logged under that
    signature (queries are cached, not results).  It holds at most
    QUERY_LOG_CAPACITY signatures and forgets the oldest logged first."""

    def __init__(self):
        self._queries: dict[str, Query] = {}

    def __len__(self) -> int:
        return len(self._queries)

    def get(self, signature: str) -> Query | None:
        return self._queries.get(signature)

    def setdefault(self, signature: str, query: Query) -> Query:
        """The query logged under `signature`, logging `query` if none is."""
        logged = self._queries.setdefault(signature, query)
        if len(self._queries) > QUERY_LOG_CAPACITY:
            del self._queries[next(iter(self._queries))]
        return logged


def process_query(q: Query, log: QueryLog, store: GraphStore) -> tuple[BindingSet, str]:
    """Execute q through the log: replay the stored normalized query on a hit,
    otherwise execute the normalized query and log it.  A query whose
    evaluation raises is not logged.  Results always reflect the live store;
    the caller's variable names label the columns either way."""
    normalized, signature = _canonical_query(q)
    logged = log.get(signature)
    result = store.evaluate(normalized if logged is None else logged)
    if logged is None:
        logged = log.setdefault(signature, normalized)
    status = "miss-generated" if logged is normalized else "hit"
    return BindingSet(q.select, result.rows, result.serialized), status


# --- config loading ---------------------------------------------------------

def mapping_from_json(doc: Mapping) -> TranslationMapping:
    return TranslationMapping(
        name=doc["name"],
        table=doc["table"],
        class_iri=Iri(doc["classIri"]),
        subject_template=doc["subjectTemplate"],
        column_map=tuple(
            (c["column"], Iri(c["predicate"]), c["datatype"])
            for c in doc["columnMap"]
        ),
    )


def alignment_from_json(doc: Mapping) -> AlignmentMap:
    return AlignmentMap.build(
        doc["name"],
        [
            (Iri(c["source"]), Iri(c["target"]), c["relation"])
            for c in doc["correspondences"]
        ],
    )


def ontology_from_json(doc: Mapping) -> OntologyContext:
    return OntologyContext(
        name=doc["name"],
        classes=frozenset(Iri(c) for c in doc["classes"]),
        predicates={
            Iri(p["predicate"]): PredicateSpec(
                Iri(p["domain"]), p["range"], bool(p.get("functional", False))
            )
            for p in doc["predicates"]
        },
    )


@dataclass
class InteropConfig:
    translations: dict[str, TranslationMapping] = field(default_factory=dict)
    alignments: dict[str, AlignmentMap] = field(default_factory=dict)
    ontologies: dict[str, OntologyContext] = field(default_factory=dict)


def load_mapping_dir(directory: str | Path) -> InteropConfig:
    """Read every *.json mapping document; dispatch on its `kind` field."""
    cfg = InteropConfig()
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        kind = doc.get("kind")
        if kind == "translation":
            m = mapping_from_json(doc)
            cfg.translations[m.name] = m
        elif kind == "alignment":
            a = alignment_from_json(doc)
            cfg.alignments[a.name] = a
        elif kind == "ontology":
            o = ontology_from_json(doc)
            cfg.ontologies[o.name] = o
        else:
            raise ValueError(f"{path.name}: unknown mapping kind {kind!r}")
    return cfg


# --- facade with counters ---------------------------------------------------

class InteropServices:
    """The six services behind one object, with per-service call counters."""

    def __init__(self, store: GraphStore, synchronizer: Synchronizer | None = None):
        self.store = store
        self.synchronizer = synchronizer or Synchronizer(store)
        self.query_log = QueryLog()
        self.counters: dict[str, int] = {
            "translate": 0,
            "annotate": 0,
            "align": 0,
            "validate": 0,
            "synchronize": 0,
            "query": 0,
        }

    def translate(self, records, m) -> list[Triple]:
        self.counters["translate"] += 1
        return translate_relational(records, m)

    def annotate(self, triples, ctx) -> list[Triple]:
        self.counters["annotate"] += 1
        return annotate(triples, ctx)

    def align(self, triples, a) -> list[Triple]:
        self.counters["align"] += 1
        return align(triples, a)

    def validate(self, triples, ctx) -> ValidationReport:
        self.counters["validate"] += 1
        return validate_description(triples, ctx)

    def synchronize(self, incoming, central_graph, observed_at_ms) -> SyncSummary:
        self.counters["synchronize"] += 1
        return self.synchronizer.synchronize(incoming, central_graph, observed_at_ms)

    def process_query(self, q: Query) -> tuple[BindingSet, str]:
        """Run q through the query log; only a query that evaluates is counted."""
        answer = process_query(q, self.query_log, self.store)
        self.counters["query"] += 1
        return answer
