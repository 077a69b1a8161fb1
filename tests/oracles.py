"""Slow reference implementations the fast engines are checked against.

Everything here favours obviousness over speed: queries are answered by
enumerating every possible variable assignment, and rule programs by the
naive fixpoint that re-derives everything each round.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Mapping, Sequence

from semhub.ml import canonical_category
from semhub.semantic import (
    BindingSet,
    Filter,
    Iri,
    Literal,
    Query,
    Term,
    Triple,
    TriplePattern,
    Variable,
    compare_terms,
    serialize_term,
)


def _instantiate(pt, assignment: Mapping[Variable, Term]):
    return assignment[pt] if isinstance(pt, Variable) else pt


def oracle_evaluate(graphs: Mapping[Iri, Sequence[Triple]], q: Query) -> BindingSet:
    """Answer q by trying every assignment of variables to terms in scope."""
    scope = sorted(q.graph_scope) if q.graph_scope else sorted(graphs)
    triples: set[Triple] = set()
    for g in scope:
        triples.update(graphs.get(g, ()))
    terms: set[Term] = set()
    for t in triples:
        terms.update((t.subject, t.predicate, t.object))
    term_list = sorted(terms, key=serialize_term)

    if not q.where:
        return BindingSet(q.select, ())

    variables: dict[Variable, None] = {}
    for p in q.where:
        for v in p.variables():
            variables.setdefault(v)
    var_list = list(variables)

    rows: set[tuple[Term, ...]] = set()
    for combo in itertools.product(term_list, repeat=len(var_list)):
        assignment = dict(zip(var_list, combo))
        ok = True
        for p in q.where:
            s = _instantiate(p.subject, assignment)
            pr = _instantiate(p.predicate, assignment)
            o = _instantiate(p.object, assignment)
            if (
                not isinstance(s, Iri)
                or not isinstance(pr, Iri)
                or isinstance(o, Variable)
                or Triple(s, pr, o) not in triples
            ):
                ok = False
                break
        if not ok:
            continue
        keep = True
        for f in q.filters:
            if not compare_terms(assignment[f.var], f.op, f.value):
                keep = False
                break
        if keep:
            rows.add(tuple(assignment[v] for v in q.select))
    ordered = sorted(rows, key=lambda r: tuple(serialize_term(t) for t in r))
    return BindingSet(q.select, tuple(ordered))


# --- random query workload --------------------------------------------------

_G1 = Iri("urn:t:graph:g1")
_G2 = Iri("urn:t:graph:g2")


def random_store_and_query(rng: random.Random) -> tuple[dict[Iri, list[Triple]], Query]:
    """A small random two-graph store plus a random query against it.

    Pools are kept tiny so joins actually join and the enumeration oracle
    stays fast (at most 3 distinct variables per query).
    """
    subjects = [Iri(f"urn:t:s{i}") for i in range(4)]
    predicates = [Iri(f"urn:t:p{i}") for i in range(3)]
    literals = [
        Literal("1", "integer"),
        Literal("2", "integer"),
        Literal("3", "integer"),
        Literal("a"),
        Literal("ab"),
        Literal("2.5", "decimal"),
        Literal("true", "boolean"),
    ]
    objects: list[Term] = list(subjects) + literals

    graphs: dict[Iri, list[Triple]] = {_G1: [], _G2: []}
    for g in (_G1, _G2):
        for _ in range(rng.randrange(6, 14)):
            t = Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
            graphs[g].append(t)

    variables = [Variable(n) for n in "xyz"]

    def pattern_term(position: int):
        r = rng.random()
        if r < 0.55:
            return rng.choice(variables)
        if position == 0:
            return rng.choice(subjects)
        if position == 1:
            return rng.choice(predicates)
        return rng.choice(objects)

    where = []
    for _ in range(rng.randrange(1, 4)):
        where.append(TriplePattern(pattern_term(0), pattern_term(1), pattern_term(2)))
    bound: dict[Variable, None] = {}
    for p in where:
        for v in p.variables():
            bound.setdefault(v)
    bound_list = list(bound)

    select = []
    if bound_list:
        k = rng.randrange(1, len(bound_list) + 1)
        select = rng.sample(bound_list, k)

    filters = []
    if bound_list and rng.random() < 0.5:
        filters.append(
            Filter(rng.choice(bound_list), rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                   rng.choice(objects))
        )

    scope = rng.choice([(), (_G1,), (_G2,), (_G1, _G2)])
    return graphs, Query(select, where, filters, scope)


# --- naive rule fixpoint ----------------------------------------------------

def naive_fixpoint(facts: Iterable[Triple], rules) -> set[Triple]:
    """Re-run every rule against everything until nothing new appears.

    `rules` is a sequence of objects with `.body` (tuple of TriplePattern),
    `.filters`, and `.head` (tuple of triple templates whose variables come
    from the body).
    """
    known: set[Triple] = set(facts)
    while True:
        fresh: set[Triple] = set()
        for rule in rules:
            for binding in _all_bindings(rule.body, known):
                if not all(
                    compare_terms(binding[f.var], f.op, f.value) for f in rule.filters
                ):
                    continue
                for s, p, o in rule.head:
                    t = Triple(
                        _instantiate(s, binding),
                        _instantiate(p, binding),
                        _instantiate(o, binding),
                    )
                    if t not in known:
                        fresh.add(t)
        if not fresh:
            return known
        known.update(fresh)


def random_rule_program(rng: random.Random) -> tuple[list[Triple], list]:
    """Random facts plus 1–3 range-restricted rules over tiny term pools.

    Head subject/predicate variables are drawn only from body subject or
    predicate positions, so every satisfying binding instantiates to a
    well-formed triple.
    """
    from semhub.reasoning import InferenceRule

    subjects = [Iri(f"urn:r:s{i}") for i in range(4)]
    predicates = [Iri(f"urn:r:p{i}") for i in range(3)]
    objects: list[Term] = list(subjects) + [
        Literal("1", "integer"),
        Literal("2", "integer"),
        Literal("z"),
    ]
    facts = []
    for _ in range(rng.randrange(5, 14)):
        facts.append(
            Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        )

    variables = [Variable(n) for n in "xyz"]
    rules = []
    for ri in range(rng.randrange(1, 4)):
        body = []
        for _ in range(rng.randrange(1, 3)):
            s = rng.choice(variables) if rng.random() < 0.7 else rng.choice(subjects)
            p = rng.choice(predicates) if rng.random() < 0.7 else rng.choice(variables)
            o = rng.choice(variables) if rng.random() < 0.6 else rng.choice(objects)
            body.append(TriplePattern(s, p, o))
        iri_vars: dict[Variable, None] = {}
        all_vars: dict[Variable, None] = {}
        for pat in body:
            for pos, term in (("s", pat.subject), ("p", pat.predicate), ("o", pat.object)):
                if isinstance(term, Variable):
                    all_vars.setdefault(term)
                    if pos in ("s", "p"):
                        iri_vars.setdefault(term)
        iri_pool: list = list(iri_vars) + subjects
        any_pool: list = list(all_vars) + objects
        head = []
        for _ in range(rng.randrange(1, 3)):
            head.append(
                (
                    rng.choice(iri_pool),
                    rng.choice(predicates),
                    rng.choice(any_pool),
                )
            )
        filters = []
        subject_vars = [
            t for pat in body for t in (pat.subject,) if isinstance(t, Variable)
        ]
        if subject_vars and rng.random() < 0.3:
            # subject-position variables always bind IRIs, so equality
            # filters against an IRI constant can never hit a type mismatch
            filters.append(
                Filter(rng.choice(subject_vars), rng.choice(["=", "!="]),
                       rng.choice(subjects))
            )
        rules.append(InferenceRule(f"r{ri}", tuple(body), tuple(filters), tuple(head)))
    return facts, rules


def _all_bindings(body: Sequence[TriplePattern], facts: set[Triple]):
    partials: list[dict[Variable, Term]] = [{}]
    for pattern in body:
        nxt = []
        for b in partials:
            for t in facts:
                nb = _unify(pattern, t, b)
                if nb is not None:
                    nxt.append(nb)
        partials = nxt
    return partials


def _unify(pattern: TriplePattern, t: Triple, binding):
    b = dict(binding)
    for pt, tt in (
        (pattern.subject, t.subject),
        (pattern.predicate, t.predicate),
        (pattern.object, t.object),
    ):
        if isinstance(pt, Variable):
            if pt in b:
                if b[pt] != tt:
                    return None
            else:
                b[pt] = tt
        elif pt != tt:
            return None
    return b


# --- unprepared k-nearest-neighbour ------------------------------------------

def oracle_knn(data, schema: Sequence[str], k: int, x) -> tuple[str, dict[str, float], list]:
    """(label, scores, nearest) of kNN computed from the raw training
    instances, one instance at a time; nearest is the k nearest as
    (distance, label), nearest first.

    Numerics are scaled to the training range and clamped at predict time,
    every instance is ranked by (distance, label), the k nearest vote, and a
    vote tie goes to the smaller distance sum, then the smaller label.
    """
    numeric = {
        name for name, v in data[0].features.values if isinstance(v, (int, float))
    }
    ranges = {
        name: (
            min(float(inst.features[name]) for inst in data),
            max(float(inst.features[name]) for inst in data),
        )
        for name in numeric
    }

    def scaled(name, value) -> float:
        lo, hi = ranges[name]
        if hi <= lo:
            return 0.0
        return min(1.0, max(0.0, (float(value) - lo) / (hi - lo)))

    def distance(features) -> float:
        total = 0.0
        for name in schema:
            a, b = features[name], x[name]
            if name in numeric:
                total += (scaled(name, a) - scaled(name, b)) ** 2
            elif canonical_category(a) != canonical_category(b):
                total += 1.0
        return math.sqrt(total)

    ranked = sorted((distance(inst.features), inst.label) for inst in data)
    votes: dict[str, int] = {}
    dist_sum: dict[str, float] = {}
    for d, label in ranked[:k]:
        votes[label] = votes.get(label, 0) + 1
        dist_sum[label] = dist_sum.get(label, 0.0) + d
    top = max(votes.values())
    label = min(
        (lab for lab, v in votes.items() if v == top),
        key=lambda lab: (dist_sum[lab], lab),
    )
    labels = sorted({inst.label for inst in data})
    return label, {lab: votes.get(lab, 0) / k for lab in labels}, ranked[:k]
