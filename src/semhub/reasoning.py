"""Forward-chaining inference and the three reasoning services.

The engine applies range-restricted, monotone rules (same pattern/filter
forms as queries — no negation, no value invention) to a least fixpoint,
semi-naively: after the first full round, each rule only joins against the
facts that appeared in the previous round.

On top of it sit three data-driven-free reasoners — activity, location and
physio status.  Each one summarizes a user's recent observations as window
aggregates (such as max motion or mean heart rate), runs its bundled rule
program over them in a private store, and publishes the derived facts into
its output graph, replacing the user's previous facts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import vocab
from .analytics import MINUTE_MS
from .errors import (
    AmbiguousActivity,
    AmbiguousDerivation,
    AmbiguousStatus,
    RuleError,
    UnknownConcept,
)
from .interop import OntologyContext
from .objects import ObjectRegistry
from .semantic import (
    Filter,
    GraphStore,
    Iri,
    Literal,
    Plan,
    Query,
    Term,
    Triple,
    TriplePattern,
    TripleIndex,
    Variable,
    instantiate,
    integer,
    pattern_variables,
    serialize_term,
    solve,
    term_from_json,
)

DATA_DIR = Path(__file__).resolve().parent / "data"

HeadTemplate = tuple[object, object, object]


@dataclass(frozen=True)
class InferenceRule:
    id: str
    body: tuple[TriplePattern, ...]
    filters: tuple[Filter, ...]
    head: tuple[HeadTemplate, ...]
    plan: Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bound = set(self.body_variables())
        for f in self.filters:
            if f.var not in bound:
                raise RuleError(f"rule {self.id}: filter variable {f.var} unbound")
        for s, p, o in self.head:
            for term in (s, p, o):
                if isinstance(term, Variable) and term not in bound:
                    raise RuleError(
                        f"rule {self.id}: head variable {term} not in body"
                    )
        object.__setattr__(self, "plan", Plan(self.body, self.filters))

    def body_variables(self) -> tuple[Variable, ...]:
        return pattern_variables(self.body)


@dataclass(frozen=True)
class RuleProgram:
    name: str
    rules: tuple[InferenceRule, ...]
    input_graphs: frozenset[Iri]
    output_graph: Iri

    def __post_init__(self):
        if self.output_graph in self.input_graphs:
            raise RuleError(
                f"program {self.name}: output graph appears in input graphs"
            )


@dataclass
class InferenceResult:
    derived: list[Triple]
    iterations: int
    fired_per_rule: dict[str, int]


def _instantiate_head(
    rule: InferenceRule, template: HeadTemplate, binding: Mapping[Variable, Term]
) -> Triple:
    try:
        return instantiate(template, binding)
    except Exception as exc:
        raise RuleError(
            f"rule {rule.id}: head instantiated to an invalid triple ({exc})"
        ) from exc


def infer_fixpoint(store: GraphStore, prog: RuleProgram) -> InferenceResult:
    """Least fixpoint of prog's rules over its input graphs.

    Derived triples (only those absent from the input) are written to the
    output graph.  `iterations` counts evaluation rounds including the final
    round that found nothing new.
    """
    base = store.snapshot(sorted(prog.input_graphs))
    input_facts = set(base.triples)

    term_count = len(base.terms())
    for rule in prog.rules:
        for template in rule.head:
            term_count += sum(1 for t in template if not isinstance(t, Variable))
    max_rounds = max(term_count * term_count, 4)

    all_facts: dict[Triple, None] = dict.fromkeys(base.triples)
    fired = {rule.id: 0 for rule in prog.rules}
    iterations = 0
    delta: list[Triple] = []

    while True:
        iterations += 1
        if iterations > max_rounds:
            raise RuleError(
                f"program {prog.name}: no fixpoint after {max_rounds} rounds"
            )
        full_index = TripleIndex(all_facts)
        new_this_round: dict[Triple, None] = {}
        for rule in prog.rules:
            n = len(rule.body)
            if iterations == 1:
                raw = solve(rule.plan, [full_index] * n)
            else:
                delta_index = TripleIndex(delta)
                raw = []
                for i in range(n):
                    indexes = [full_index] * n
                    indexes[i] = delta_index
                    raw.extend(solve(rule.plan, indexes))
            for row in dict.fromkeys(raw):
                binding = rule.plan.binding(row)
                for template in rule.head:
                    fact = _instantiate_head(rule, template, binding)
                    if fact in all_facts or fact in new_this_round:
                        continue
                    new_this_round[fact] = None
                    fired[rule.id] += 1
        if not new_this_round:
            break
        delta = list(new_this_round)
        all_facts.update(new_this_round)

    derived = [t for t in all_facts if t not in input_facts]
    store.insert_all(prog.output_graph, derived)
    return InferenceResult(derived, iterations, fired)


_FACTS_IN = Iri("urn:sem:graph:__facts_in__")
_FACTS_OUT = Iri("urn:sem:graph:__facts_out__")


def _derive(
    name: str, rules: Sequence[InferenceRule], facts: Sequence[Triple]
) -> list[Triple]:
    """The facts `rules` derive from `facts`, evaluated in a private store so
    no caller's store ever holds the inputs."""
    store = GraphStore()
    store.insert_all(_FACTS_IN, facts)
    prog = RuleProgram(name, tuple(rules), frozenset([_FACTS_IN]), _FACTS_OUT)
    return infer_fixpoint(store, prog).derived


# --- rule file loading ------------------------------------------------------

def rules_from_json(doc: Mapping) -> list[InferenceRule]:
    rules = []
    for r in doc["rules"]:
        body = tuple(
            TriplePattern(term_from_json(s), term_from_json(p), term_from_json(o))
            for s, p, o in r["body"].get("where", [])
        )
        filters = tuple(
            Filter(term_from_json(f["var"]), f["op"], term_from_json(f["value"]))
            for f in r["body"].get("filters", [])
        )
        head = tuple(
            (term_from_json(s), term_from_json(p), term_from_json(o))
            for s, p, o in r["head"]
        )
        rules.append(InferenceRule(r["id"], body, filters, head))
    return rules


def load_rule_file(path: str | Path) -> list[InferenceRule]:
    return rules_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


# --- window aggregation -----------------------------------------------------

def _mean_literal(values: Sequence[Literal]) -> Literal:
    total = sum(Decimal(v.lexical) for v in values)
    mean = (total / Decimal(len(values))).quantize(Decimal("0.0001"))
    return Literal(str(mean), "decimal")


class ReasoningService:
    """Activity, location and physio-status reasoning over live observations.

    A run evaluates its rules in a private store and writes to the shared
    store only its result: it clears the user's previous fact and, unless
    the derivation is ambiguous, inserts the derived facts into the output
    graph.  The shared store never holds a run's inputs."""

    FACT_PREDICATE = {
        "activity": vocab.CURRENT_ACTIVITY,
        "location": vocab.IN_ZONE,
        "physio-status": vocab.PHYSIO_STATUS,
    }

    def __init__(
        self,
        registry: ObjectRegistry,
        programs: Mapping[str, Sequence[InferenceRule]],
    ):
        self.registry = registry
        self.store = registry.store
        self.programs = {name: tuple(rules) for name, rules in programs.items()}
        self.counters: dict[str, int] = {name: 0 for name in self.programs}
        self.derived_facts = 0
        for name, rules in self.programs.items():
            _validate_exclusive(name, rules, self.FACT_PREDICATE[name])

    # --- plumbing -------------------------------------------------------

    def output_graph(self, name: str) -> Iri:
        return vocab.graph_iri(f"derived:{name}")

    def _run(self, name: str, user: Iri, facts: list[Triple]) -> list[Triple]:
        out = self.output_graph(name)
        fact_predicate = self.FACT_PREDICATE[name]
        self.counters[name] += 1
        self._clear_user_facts(out, user, fact_predicate)
        if not facts:
            return []
        derived = _derive(name, self.programs[name], facts)
        statuses = {
            t.object
            for t in derived
            if t.subject == user and t.predicate == fact_predicate
        }
        if len(statuses) > 1:
            names = ", ".join(sorted(serialize_term(s) for s in statuses))
            if name == "activity":
                raise AmbiguousActivity(f"multiple activities derived: {names}")
            if name == "physio-status":
                raise AmbiguousStatus(f"multiple statuses derived: {names}")
            raise AmbiguousDerivation(f"multiple {name} facts derived: {names}")
        self.store.insert_all(out, derived)
        self.derived_facts += len(derived)
        return derived

    def _clear_user_facts(self, graph: Iri, user: Iri, predicate: Iri) -> None:
        for t in self.store.triples(graph):
            if t.subject == user and t.predicate == predicate:
                self.store.remove(graph, t)

    # --- the three reasoners --------------------------------------------

    def run_activity(self, user: Iri, window: tuple[int, int]) -> list[Triple]:
        start, end = window
        motion = self.registry.readings(user, vocab.MOTION_COUNT, max(start, end - 30 * MINUTE_MS), end)
        lux = self.registry.readings(user, vocab.LUMINOSITY, max(start, end - 30 * MINUTE_MS), end)
        facts: list[Triple] = []
        if motion:
            hour = datetime.fromtimestamp(end / 1000, tz=timezone.utc).hour
            facts.append(Triple(user, vocab.HOUR_OF_DAY, integer(hour)))
            max_motion = max(int(o.value.lexical) for o in motion)
            facts.append(Triple(user, vocab.MAX_MOTION_30M, integer(max_motion)))
            if lux:
                facts.append(
                    Triple(user, vocab.MEAN_LUMINOSITY, _mean_literal([o.value for o in lux]))
                )
        return self._run("activity", user, facts)

    def run_location(self, user: Iri, window: tuple[int, int]) -> list[Triple]:
        start, end = window
        beacons = self.registry.readings(user, vocab.ZONE_READING, start, end)
        facts: list[Triple] = []
        if beacons:
            latest_ts = max(o.timestamp for o in beacons)
            zones = sorted(
                o.value.lexical for o in beacons if o.timestamp == latest_ts
            )
            facts.append(
                Triple(user, vocab.LATEST_BEACON_ZONE, vocab.zone_iri(zones[0]))
            )
        return self._run("location", user, facts)

    def run_physio(self, user: Iri, window: tuple[int, int]) -> list[Triple]:
        """Mean heart rate over the last 15 minutes and mean systolic over
        the last 60, each span clamped to the request window.  So in
        `flow-physio-status` (`windowMinutes` 15), `meanSystolic60m`
        averages 15 minutes, while the physio analyzer's
        `mean-systolic-60min` feature averages 60."""
        start, end = window
        hr = self.registry.readings(user, vocab.HEART_RATE, max(start, end - 15 * MINUTE_MS), end)
        sys = self.registry.readings(user, vocab.SYSTOLIC, max(start, end - 60 * MINUTE_MS), end)
        facts: list[Triple] = []
        if hr:
            facts.append(
                Triple(user, vocab.MEAN_HEART_RATE_15M, _mean_literal([o.value for o in hr]))
            )
        if sys:
            facts.append(
                Triple(user, vocab.MEAN_SYSTOLIC_60M, _mean_literal([o.value for o in sys]))
            )
        return self._run("physio-status", user, facts)

    def run(self, name: str, user: Iri, window: tuple[int, int]) -> list[Triple]:
        if name == "activity":
            return self.run_activity(user, window)
        if name == "location":
            return self.run_location(user, window)
        if name == "physio-status":
            return self.run_physio(user, window)
        raise UnknownConcept(f"no reasoner named {name!r}")


# --- mutual-exclusion validation at load ------------------------------------

_CHECK_USER = Iri("urn:sem:user:__exclusion_check__")
_PLACEHOLDER = Iri("urn:sem:__exclusion_check__:value")


def _probes(constants: Sequence[Term]) -> list[Term]:
    """One value in each part that `constants` cut the number line into:
    below the least, at each, between neighbours and above the greatest, so
    every filter against them takes each of its truth values at some probe.
    Constants of any other kind, or none, are probed at themselves and at
    one IRI equal to none of them."""
    kinds = {c.datatype if isinstance(c, Literal) else None for c in constants}
    if kinds not in ({"integer"}, {"decimal"}):
        return [*dict.fromkeys(constants), _PLACEHOLDER]
    (datatype,) = kinds
    cs = sorted({c.value() for c in constants})
    points = [cs[0] - 1, *cs, cs[-1] + 1]
    for a, b in zip(cs, cs[1:]):
        if datatype == "decimal":
            points.append((a + b) / 2)
        elif b - a > 1:
            points.append((a + b) // 2)
    return [Literal(format(x, "f") if datatype == "decimal" else str(x), datatype)
            for x in sorted(points)]


def _validate_exclusive(
    name: str, rules: Sequence[InferenceRule], fact_predicate: Iri
) -> None:
    """Refuse a program that can derive two `fact_predicate` objects for one
    user.  Its inputs are the predicates its rules read as `?u <p> ?x`; each
    is probed absent and at the `_probes` of the constants that filters
    compare its ?x with, and the rules run on every combination of probes."""
    constants: dict[Iri, list[Term]] = {}
    for rule in rules:
        reads: dict[Variable, list[Iri]] = {}
        for pat in rule.body:
            p, o = pat.predicate, pat.object
            if isinstance(pat.subject, Variable) and isinstance(p, Iri) and isinstance(o, Variable):
                constants.setdefault(p, [])
                reads.setdefault(o, []).append(p)
        for f in rule.filters:
            for p in reads.get(f.var, ()):
                constants[p].append(f.value)
    predicates = sorted(constants)
    probes = [[None, *_probes(constants[p])] for p in predicates]
    for values in itertools.product(*probes):
        facts = [Triple(_CHECK_USER, p, v)
                 for p, v in zip(predicates, values) if v is not None]
        derived = {t.object for t in _derive(name, rules, facts)
                   if t.subject == _CHECK_USER and t.predicate == fact_predicate}
        if len(derived) > 1:
            at = ", ".join(f"{p.value}={'absent' if v is None else serialize_term(v)}"
                           for p, v in zip(predicates, values))
            names = ", ".join(sorted(serialize_term(d) for d in derived))
            raise RuleError(f"program {name}: rules overlap at {at}: {names}")


def load_default_programs() -> dict[str, list[InferenceRule]]:
    rules_dir = DATA_DIR / "rules"
    return {
        "activity": load_rule_file(rules_dir / "activity.json"),
        "location": load_rule_file(rules_dir / "location.json"),
        "physio-status": load_rule_file(rules_dir / "physio.json"),
    }


# --- query generation -------------------------------------------------------

@dataclass(frozen=True)
class ServiceRequirement:
    subject_class: Iri
    properties: tuple[Iri, ...]
    constraints: tuple[tuple[Iri, str, Term], ...] = ()  # (property, op, value)


def generate_query(
    requirement: ServiceRequirement,
    ctx: OntologyContext,
    graph_scope: Iterable[Iri] = (),
) -> Query:
    """Build a query from a requirement: a type pattern for the subject class
    plus one pattern and one selected variable per requested property."""
    if requirement.subject_class not in ctx.classes:
        raise UnknownConcept(f"class {requirement.subject_class} not in ontology")
    subject = Variable("s")
    where = [TriplePattern(subject, vocab.TYPE, requirement.subject_class)]
    select = [subject]
    value_vars: dict[Iri, Variable] = {}
    for i, prop in enumerate(requirement.properties):
        if prop not in ctx.predicates:
            raise UnknownConcept(f"property {prop} not in ontology")
        v = Variable(f"v{i}")
        value_vars[prop] = v
        where.append(TriplePattern(subject, prop, v))
        select.append(v)
    filters = []
    for prop, op, value in requirement.constraints:
        if prop not in value_vars:
            raise UnknownConcept(f"constraint on unrequested property {prop}")
        filters.append(Filter(value_vars[prop], op, value))
    return Query(select, where, filters, graph_scope)
