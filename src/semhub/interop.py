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
import itertools
import json
import threading
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
    binding_set_to_json,
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
    """Input plus one conformsTo triple per subject typed with a ctx class."""
    present = set(triples)
    target = vocab.ontology_iri(ctx.name)
    enrichment: dict[Triple, None] = {}
    for t in triples:
        if t.predicate == vocab.TYPE and t.object in ctx.classes:
            link = Triple(t.subject, vocab.CONFORMS_TO, target)
            if link not in present:
                enrichment.setdefault(link)
    return list(triples) + list(enrichment)


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
        rewritten.append(Triple(t.subject, predicate, obj))

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


class Synchronizer:
    """Merge incoming batches into central graphs.

    Functional predicates follow last-writer-wins keyed on the batch
    timestamp; everything else is set-unioned.  A stale value older than the
    stored one by more than the skew window is flagged (and still counted as
    unchanged) rather than raised — cross-domain clocks drift, and dropping
    the batch would lose the rest of it.
    """

    def __init__(
        self,
        store: GraphStore,
        functional: Iterable[Iri] = (),
        skew_window_ms: int = 300_000,
    ):
        self._store = store
        self._functional = frozenset(functional)
        self._skew_window_ms = skew_window_ms
        self._lock = threading.Lock()
        # (central graph, subject, predicate) -> (current object, batch ts)
        self._state: dict[tuple[Iri, Iri, Iri], tuple[Term, int]] = {}

    def synchronize(
        self,
        incoming: Sequence[Triple],
        central_graph: Iri,
        observed_at_ms: int,
    ) -> SyncSummary:
        summary = SyncSummary()
        with self._lock:
            for t in incoming:
                if t.predicate not in self._functional:
                    if self._store.insert(central_graph, t):
                        summary.added += 1
                    else:
                        summary.unchanged += 1
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
                    if ts - observed_at_ms > self._skew_window_ms:
                        summary.skew_rejected += 1
        return summary


# --- query log --------------------------------------------------------------

_MAX_PERMUTED_PATTERNS = 6


def _canonical_query(q: Query) -> tuple[Query, str]:
    """Normalize to a canonical variant: variables renumbered by first
    occurrence, patterns ordered to minimize the serialized form (trying all
    orders up to a size cap, ties broken by the renamed filters and select),
    filters sorted.  Returns (normalized query, signature hash)."""

    def renumber(patterns: Sequence[TriplePattern]):
        mapping: dict[Variable, Variable] = {}

        def rn(term):
            if isinstance(term, Variable):
                if term not in mapping:
                    mapping[term] = Variable(f"v{len(mapping)}")
                return mapping[term]
            return term

        renamed = [
            TriplePattern(rn(p.subject), rn(p.predicate), rn(p.object))
            for p in patterns
        ]
        return renamed, mapping

    def serial(patterns: Sequence[TriplePattern]) -> tuple[str, ...]:
        return tuple(
            f"{serialize_term(p.subject)} {serialize_term(p.predicate)} {serialize_term(p.object)}"
            for p in patterns
        )

    if len(q.where) <= _MAX_PERMUTED_PATTERNS:
        orders = itertools.permutations(q.where)
    else:
        orders = iter([tuple(sorted(q.where, key=lambda p: serial([p])[0]))])

    def tiebreak(mapping: Mapping[Variable, Variable]) -> tuple:
        # symmetric patterns can leave several orders with the same minimal
        # serialization, in which case the renaming of the variables they
        # disagree on would depend on input order; the filters and select
        # pin a single winner
        return (
            tuple(sorted(
                f"{mapping[f.var].name} {f.op} {serialize_term(f.value)}"
                for f in q.filters
            )),
            tuple(mapping[v].name for v in q.select),
        )

    best = None
    for order in orders:
        renamed, mapping = renumber(order)
        key = (serial(renamed), *tiebreak(mapping))
        if best is None or key < best[0]:
            best = (key, renamed, mapping)
    _, patterns, mapping = best

    filters = sorted(
        (Filter(mapping[f.var], f.op, f.value) for f in q.filters),
        key=lambda f: (f.var.name, f.op, serialize_term(f.value)),
    )
    select = [mapping[v] for v in q.select]
    normalized = Query(select, patterns, filters, q.graph_scope)

    basis = json.dumps(
        {
            "select": [v.name for v in select],
            "where": list(serial(patterns)),
            "filters": [
                [f.var.name, f.op, serialize_term(f.value)] for f in filters
            ],
            "graphs": sorted(g.value for g in q.graph_scope),
        },
        sort_keys=True,
    )
    return normalized, hashlib.sha256(basis.encode()).hexdigest()


def query_signature(q: Query) -> str:
    return _canonical_query(q)[1]


@dataclass
class QueryLogEntry:
    signature: str
    query: Query
    last_result_digest: str = ""
    hit_count: int = 0


class QueryLog:
    """Signature-keyed log of normalized queries (queries cached, not results)."""

    def __init__(self):
        self._entries: dict[str, QueryLogEntry] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[QueryLogEntry]:
        with self._lock:
            return list(self._entries.values())

    def lookup(self, signature: str) -> QueryLogEntry | None:
        with self._lock:
            return self._entries.get(signature)

    def record(self, entry: QueryLogEntry) -> None:
        with self._lock:
            self._entries[entry.signature] = entry

    def register_hit(self, signature: str) -> QueryLogEntry:
        with self._lock:
            entry = self._entries[signature]
            entry.hit_count += 1
            return entry


def _result_digest(result: BindingSet) -> str:
    return hashlib.sha256(
        json.dumps(binding_set_to_json(result), sort_keys=True).encode()
    ).hexdigest()


def process_query(q: Query, log: QueryLog, store: GraphStore) -> tuple[BindingSet, str]:
    """Execute q through the log: replay the stored normalized query on a hit,
    otherwise normalize, log, and execute.  Results always reflect the live
    store; the caller's variable names label the columns either way."""
    normalized, signature = _canonical_query(q)
    entry = log.lookup(signature)
    if entry is not None:
        log.register_hit(signature)
        result = store.evaluate(entry.query)
        status = "hit"
    else:
        entry = QueryLogEntry(signature, normalized, hit_count=1)
        log.record(entry)
        result = store.evaluate(normalized)
        status = "miss-generated"
    entry.last_result_digest = _result_digest(result)
    return BindingSet(q.select, result.rows), status


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
        self._lock = threading.Lock()

    def _bump(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1

    def translate(self, records, m) -> list[Triple]:
        self._bump("translate")
        return translate_relational(records, m)

    def annotate(self, triples, ctx) -> list[Triple]:
        self._bump("annotate")
        return annotate(triples, ctx)

    def align(self, triples, a) -> list[Triple]:
        self._bump("align")
        return align(triples, a)

    def validate(self, triples, ctx) -> ValidationReport:
        self._bump("validate")
        return validate_description(triples, ctx)

    def synchronize(self, incoming, central_graph, observed_at_ms) -> SyncSummary:
        self._bump("synchronize")
        return self.synchronizer.synchronize(incoming, central_graph, observed_at_ms)

    def process_query(self, q: Query) -> tuple[BindingSet, str]:
        self._bump("query")
        return process_query(q, self.query_log, self.store)
