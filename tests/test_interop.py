import random
import subprocess
import sys

import pytest

from semhub import vocab
from semhub import interop
from semhub.errors import BindingLimitExceeded, ComparisonTypeError, DatatypeMismatch, TableMismatch
from semhub.interop import (
    AlignmentMap,
    InteropServices,
    OntologyContext,
    PredicateSpec,
    QueryLog,
    RelationalRecord,
    Synchronizer,
    TranslationMapping,
    align,
    annotate,
    process_query,
    query_signature,
    translate_relational,
    validate_description,
)
from semhub.semantic import (
    MAX_BINDINGS,
    Filter,
    GraphStore,
    Iri,
    Literal,
    Query,
    Triple,
    TriplePattern,
    Variable,
    integer,
    solve_query,
    string,
)

from children import source_env

HR = Iri("urn:sem:heartRate")
VITALS = Iri("urn:sem:class:Vitals")
CENTRAL = Iri("urn:t:graph:central")


def vitals_mapping():
    return TranslationMapping(
        name="vitals",
        table="vitals",
        class_iri=VITALS,
        subject_template="urn:vitals:{pk}",
        column_map=(("hr", HR, "integer"),),
    )


# --- translation ------------------------------------------------------------

def test_translate_empty():
    assert translate_relational([], vitals_mapping()) == []


def test_translate_one_record():
    rec = RelationalRecord("vitals", "id", {"id": 7, "hr": 72})
    got = translate_relational([rec], vitals_mapping())
    subject = Iri("urn:vitals:7")
    assert got == [
        Triple(subject, vocab.TYPE, VITALS),
        Triple(subject, HR, integer(72)),
    ]


def test_translate_bad_cast():
    rec = RelationalRecord("vitals", "id", {"id": 7, "hr": "abc"})
    with pytest.raises(DatatypeMismatch) as e:
        translate_relational([rec], vitals_mapping())
    assert e.value.column == "hr"


def test_translate_table_mismatch():
    rec = RelationalRecord("labs", "id", {"id": 1, "hr": 70})
    with pytest.raises(TableMismatch):
        translate_relational([rec], vitals_mapping())


def test_translate_skips_null_and_unmapped():
    rec = RelationalRecord("vitals", "id", {"id": 7, "hr": None, "note": "x"})
    got = translate_relational([rec], vitals_mapping())
    assert got == [Triple(Iri("urn:vitals:7"), vocab.TYPE, VITALS)]


def test_translate_missing_pk_column_rejected():
    with pytest.raises(TableMismatch):
        RelationalRecord("vitals", "id", {"hr": 70})


def test_mapping_requires_pk_placeholder():
    with pytest.raises(TableMismatch):
        TranslationMapping("x", "t", VITALS, "urn:vitals:static", ())


# --- annotation -------------------------------------------------------------

def small_ctx(functional=False):
    return OntologyContext(
        name="test",
        classes=frozenset([VITALS]),
        predicates={HR: PredicateSpec(VITALS, "integer", functional)},
    )


def test_annotate_noop_without_matching_class():
    triples = [Triple(Iri("urn:t:s"), HR, integer(70))]
    assert annotate(triples, small_ctx()) == triples


def test_annotate_adds_conforms_to():
    s = Iri("urn:t:s")
    triples = [Triple(s, vocab.TYPE, VITALS), Triple(s, HR, integer(70))]
    got = annotate(triples, small_ctx())
    assert got[:2] == triples
    assert got[2:] == [Triple(s, vocab.CONFORMS_TO, vocab.ontology_iri("test"))]


def test_annotate_once_per_subject_and_idempotent():
    s = Iri("urn:t:s")
    triples = [Triple(s, vocab.TYPE, VITALS), Triple(s, vocab.TYPE, VITALS)]
    got = annotate(triples, small_ctx())
    conforms = [t for t in got if t.predicate == vocab.CONFORMS_TO]
    assert len(conforms) == 1
    assert annotate(got, small_ctx()) == got


# --- alignment --------------------------------------------------------------

def test_align_empty_map_is_identity():
    triples = [Triple(Iri("urn:t:s"), HR, integer(70))]
    a = AlignmentMap.build("empty", [])
    assert align(triples, a) == triples


def test_align_rewrites_equivalent_predicate():
    s = Iri("urn:t:s")
    a = AlignmentMap.build("m", [(vocab.MED_HR, HR, "equivalent")])
    got = align([Triple(s, vocab.MED_HR, integer(70))], a)
    assert got == [Triple(s, HR, integer(70))]


def test_align_rewrites_class_object():
    s = Iri("urn:t:s")
    a = AlignmentMap.build("m", [(vocab.MED_PATIENT, VITALS, "equivalent")])
    got = align([Triple(s, vocab.TYPE, vocab.MED_PATIENT)], a)
    assert got == [Triple(s, vocab.TYPE, VITALS)]


def test_align_subsumption_keeps_both():
    s = Iri("urn:t:s")
    nurse = Iri("urn:t:class:Nurse")
    clinician = Iri("urn:t:class:Clinician")
    a = AlignmentMap.build("m", [(nurse, clinician, "subsumedBy")])
    got = align([Triple(s, vocab.TYPE, nurse)], a)
    assert Triple(s, vocab.TYPE, nurse) in got
    assert Triple(s, vocab.TYPE, clinician) in got
    assert len(got) == 2


def test_align_equivalence_idempotent():
    s = Iri("urn:t:s")
    a = AlignmentMap.build(
        "m",
        [
            (vocab.MED_HR, HR, "equivalent"),
            (vocab.MED_PATIENT, VITALS, "equivalent"),
        ],
    )
    triples = [
        Triple(s, vocab.TYPE, vocab.MED_PATIENT),
        Triple(s, vocab.MED_HR, integer(70)),
        Triple(s, HR, integer(80)),
    ]
    once = align(triples, a)
    assert align(once, a) == once


def test_align_chain_compression():
    p1, p2, p3 = Iri("urn:t:p1"), Iri("urn:t:p2"), Iri("urn:t:p3")
    a = AlignmentMap.build(
        "m", [(p1, p2, "equivalent"), (p2, p3, "equivalent")]
    )
    got = align([Triple(Iri("urn:t:s"), p1, integer(1))], a)
    assert got[0].predicate == p3


def test_align_rejects_cycles_and_duplicates():
    p1, p2 = Iri("urn:t:p1"), Iri("urn:t:p2")
    with pytest.raises(ValueError):
        AlignmentMap.build("m", [(p1, p2, "equivalent"), (p2, p1, "equivalent")])
    with pytest.raises(ValueError):
        AlignmentMap.build(
            "m", [(p1, p2, "equivalent"), (p1, Iri("urn:t:p3"), "equivalent")]
        )


# --- validation -------------------------------------------------------------

def test_validate_empty_is_valid():
    report = validate_description([], small_ctx())
    assert report.valid and not report.violations


def test_validate_unknown_predicate():
    report = validate_description(
        [Triple(Iri("urn:t:s"), Iri("urn:t:mystery"), integer(1))], small_ctx()
    )
    assert not report.valid
    assert [v.reason for v in report.violations] == ["unknown-predicate"]


def test_validate_unknown_class():
    report = validate_description(
        [Triple(Iri("urn:t:s"), vocab.TYPE, Iri("urn:t:class:Alien"))], small_ctx()
    )
    assert [v.reason for v in report.violations] == ["unknown-class"]


def test_validate_domain_mismatch():
    room = Iri("urn:t:class:Room")
    ctx = OntologyContext(
        name="t",
        classes=frozenset([VITALS, room]),
        predicates={HR: PredicateSpec(VITALS, "integer")},
    )
    s = Iri("urn:t:s")
    report = validate_description(
        [Triple(s, vocab.TYPE, room), Triple(s, HR, integer(70))], ctx
    )
    assert [v.reason for v in report.violations] == ["domain-mismatch"]


def test_validate_untyped_subject_skips_domain_check():
    report = validate_description([Triple(Iri("urn:t:s"), HR, integer(70))], small_ctx())
    assert report.valid


def test_validate_wildcard_domain():
    ctx = OntologyContext(
        name="t",
        classes=frozenset([VITALS]),
        predicates={HR: PredicateSpec(vocab.ANY_CLASS, "integer")},
    )
    s = Iri("urn:t:s")
    report = validate_description(
        [Triple(s, vocab.TYPE, VITALS), Triple(s, HR, integer(70))], ctx
    )
    assert report.valid


def test_validate_range_mismatch():
    s = Iri("urn:t:s")
    report = validate_description(
        [Triple(s, vocab.TYPE, VITALS), Triple(s, HR, string("fast"))], small_ctx()
    )
    assert [v.reason for v in report.violations] == ["range-mismatch"]
    ctx = OntologyContext(
        name="t",
        classes=frozenset([VITALS]),
        predicates={HR: PredicateSpec(VITALS, "iri")},
    )
    report = validate_description(
        [Triple(s, vocab.TYPE, VITALS), Triple(s, HR, integer(70))], ctx
    )
    assert [v.reason for v in report.violations] == ["range-mismatch"]


# --- synchronization --------------------------------------------------------

def test_sync_idempotent():
    store = GraphStore()
    sync = Synchronizer(store, functional=[HR])
    s = Iri("urn:t:s")
    batch = [Triple(s, HR, integer(70)), Triple(s, vocab.TYPE, VITALS)]
    first = sync.synchronize(batch, CENTRAL, 1000)
    assert (first.added, first.superseded, first.unchanged) == (2, 0, 0)
    second = sync.synchronize(batch, CENTRAL, 1000)
    assert (second.added, second.superseded, second.unchanged) == (0, 0, 2)


def test_sync_newer_supersedes():
    store = GraphStore()
    sync = Synchronizer(store, functional=[HR])
    s = Iri("urn:t:s")
    sync.synchronize([Triple(s, HR, integer(70))], CENTRAL, 1000)
    out = sync.synchronize([Triple(s, HR, integer(85))], CENTRAL, 2000)
    assert (out.added, out.superseded, out.unchanged) == (0, 1, 0)
    triples = store.triples(CENTRAL)
    assert Triple(s, HR, integer(85)) in triples
    assert Triple(s, HR, integer(70)) not in triples


def test_sync_disjoint_union():
    store = GraphStore()
    sync = Synchronizer(store, functional=[HR])
    a = [Triple(Iri("urn:t:a"), HR, integer(60))]
    b = [Triple(Iri("urn:t:b"), HR, integer(61))]
    assert sync.synchronize(a + b, CENTRAL, 1000).added == 2


def test_sync_stale_within_window_unchanged():
    store = GraphStore()
    sync = Synchronizer(store, functional=[HR])
    s = Iri("urn:t:s")
    sync.synchronize([Triple(s, HR, integer(70))], CENTRAL, 100_000)
    out = sync.synchronize([Triple(s, HR, integer(60))], CENTRAL, 50_000)
    assert (out.superseded, out.unchanged, out.skew_rejected) == (0, 1, 0)
    assert Triple(s, HR, integer(70)) in store.triples(CENTRAL)


def test_sync_stale_beyond_window_flagged():
    store = GraphStore()
    sync = Synchronizer(store, functional=[HR])
    s = Iri("urn:t:s")
    sync.synchronize([Triple(s, HR, integer(70))], CENTRAL, 1_000_000)
    out = sync.synchronize([Triple(s, HR, integer(60))], CENTRAL, 100_000)
    assert (out.unchanged, out.skew_rejected) == (1, 1)
    assert Triple(s, HR, integer(70)) in store.triples(CENTRAL)


def test_sync_order_free_for_disjoint_subjects():
    batches = [
        ([Triple(Iri("urn:t:a"), HR, integer(60))], 1000),
        ([Triple(Iri("urn:t:b"), HR, integer(70))], 2000),
        ([Triple(Iri("urn:t:c"), vocab.TYPE, VITALS)], 1500),
    ]
    results = []
    for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
        store = GraphStore()
        sync = Synchronizer(store, functional=[HR])
        for i in order:
            batch, ts = batches[i]
            sync.synchronize(batch, CENTRAL, ts)
        results.append(sorted(store.triples(CENTRAL), key=str))
    assert results[0] == results[1] == results[2]


def reference_synchronize(store, state, functional, incoming, graph, ts):
    """Synchronization as a sequence of single-triple store writes."""
    summary = interop.SyncSummary()
    for t in incoming:
        if t.predicate not in functional:
            if store.insert(graph, t):
                summary.added += 1
            else:
                summary.unchanged += 1
            continue
        key = (graph, t.subject, t.predicate)
        if key not in state:
            store.insert(graph, t)
            state[key] = (t.object, ts)
            summary.added += 1
            continue
        value, seen = state[key]
        if t.object == value:
            state[key] = (value, max(seen, ts))
            summary.unchanged += 1
        elif ts > seen:
            store.remove(graph, Triple(t.subject, t.predicate, value))
            store.insert(graph, t)
            state[key] = (t.object, ts)
            summary.superseded += 1
        else:
            summary.unchanged += 1
            summary.skew_rejected += ts < seen - interop.SKEW_WINDOW_MS
    return summary


def test_sync_matches_the_per_triple_reference():
    a, b, c = (Iri(f"urn:t:{x}") for x in "abc")
    note = Iri("urn:t:note")
    batches = [
        (1_000_000, [
            Triple(a, vocab.TYPE, VITALS), Triple(a, HR, integer(70)),
            Triple(b, note, string("x")), Triple(b, note, string("x")),  # a duplicate
            Triple(c, HR, integer(60)), Triple(Iri("urn:t:a"), vocab.TYPE, VITALS),
        ]),
        (2_000_000, [
            Triple(a, HR, integer(85)),  # supersedes 70
            Triple(a, vocab.TYPE, VITALS), Triple(b, note, string("y")),
            Triple(c, HR, integer(61)), Triple(c, HR, integer(62)),  # the second is not newer
            Triple(b, HR, integer(90)),
        ]),
        (100_000, [  # older than the stored values by more than the skew window
            Triple(a, HR, integer(50)), Triple(a, HR, integer(85)),
            Triple(c, note, string("z")), Triple(c, note, string("z")),
        ]),
        (1_900_000, [Triple(b, HR, integer(91)), Triple(b, note, string("x"))]),  # stale, in the window
    ]
    store, reference = GraphStore(), GraphStore()
    sync, state = Synchronizer(store, functional=[HR]), {}
    summaries = []
    for ts, batch in batches:
        got = sync.synchronize(batch, CENTRAL, ts)
        assert got == reference_synchronize(reference, state, {HR}, batch, CENTRAL, ts)
        assert set(store.triples(CENTRAL)) == set(reference.triples(CENTRAL))
        assert sync._state == state
        summaries.append((got.added, got.superseded, got.unchanged, got.skew_rejected))
    assert summaries == [(4, 0, 2, 0), (2, 2, 2, 0), (1, 0, 3, 1), (0, 0, 2, 0)]
    assert store.graph_size(CENTRAL) == 7


def test_evict_takes_out_subjects_and_their_state():
    store = GraphStore()
    sync = Synchronizer(store, functional=[HR])
    a, b = Iri("urn:t:a"), Iri("urn:t:b")
    old = [Triple(a, vocab.TYPE, VITALS), Triple(a, HR, integer(70))]
    sync.synchronize(old, CENTRAL, 1000)
    sync.synchronize([Triple(a, HR, integer(85))], CENTRAL, 2000)  # supersedes 70
    sync.synchronize([Triple(b, HR, integer(60))], CENTRAL, 2000)
    sync.evict(CENTRAL, old)
    assert store.triples(CENTRAL) == [Triple(b, HR, integer(60))]
    assert [key[1] for key in sync._state] == [b]
    # an evicted subject synchronizes afresh
    assert sync.synchronize([Triple(a, HR, integer(50))], CENTRAL, 500).added == 1


# --- query log --------------------------------------------------------------

def make_store():
    store = GraphStore()
    s1, s2 = Iri("urn:t:a"), Iri("urn:t:b")
    store.insert(CENTRAL, Triple(s1, vocab.TYPE, VITALS))
    store.insert(CENTRAL, Triple(s1, HR, integer(70)))
    store.insert(CENTRAL, Triple(s2, vocab.TYPE, VITALS))
    store.insert(CENTRAL, Triple(s2, HR, integer(95)))
    return store


def hr_query(subject_var="s", value_var="v"):
    s, v = Variable(subject_var), Variable(value_var)
    return Query(
        select=[s, v],
        where=[TriplePattern(s, vocab.TYPE, VITALS), TriplePattern(s, HR, v)],
        filters=[Filter(v, ">", integer(60))],
        graph_scope=[CENTRAL],
    )


def test_process_query_hit_and_miss():
    store, log = make_store(), QueryLog()
    r1, status1 = process_query(hr_query(), log, store)
    assert status1 == "miss-generated"
    assert len(log) == 1
    r2, status2 = process_query(hr_query(), log, store)
    assert status2 == "hit"
    assert len(log) == 1
    assert r1.rows == r2.rows


def test_alpha_renamed_query_hits():
    store, log = make_store(), QueryLog()
    process_query(hr_query("s", "v"), log, store)
    _, status = process_query(hr_query("subject", "reading"), log, store)
    assert status == "hit"
    assert len(log) == 1


def test_permuted_patterns_hit():
    store, log = make_store(), QueryLog()
    q = hr_query()
    permuted = Query(q.select, tuple(reversed(q.where)), q.filters, q.graph_scope)
    process_query(q, log, store)
    _, status = process_query(permuted, log, store)
    assert status == "hit"


def counted_rankings(monkeypatch) -> list:
    """List the sizes of the colourings the query-log signature ranks: per
    connected set of variables, one to start, one per refinement round and
    one per tie it breaks."""
    ranked = []
    ranks = interop._ranks

    def counting(keys):
        ranked.append(len(keys))
        return ranks(keys)

    monkeypatch.setattr(interop, "_ranks", counting)
    return ranked


def test_distinct_shapes_settle_in_one_refinement_round(monkeypatch):
    s = Variable("s")
    where = [TriplePattern(s, Iri(f"urn:sem:p{i}"), Variable(f"o{i}")) for i in range(6)]
    ranked = counted_rankings(monkeypatch)
    query_signature(Query([s], where))
    assert len(ranked) <= 2  # the start colouring, then one round splits every ?o<i>


def test_renaming_a_seven_pattern_query_keeps_the_signature():
    def query(a, b):
        a, b = Variable(a), Variable(b)
        where = [TriplePattern(a, Iri("urn:sem:p0"), b), TriplePattern(b, Iri("urn:sem:p1"), a)]
        where += [TriplePattern(a, Iri(f"urn:sem:q{i}"), Variable(f"o{i}")) for i in range(5)]
        return Query([a], where)

    assert len(query("a", "b").where) == 7
    assert query_signature(query("a", "b")) == query_signature(query("b", "a"))


def test_renamed_permuted_query_with_same_shape_patterns_hits(monkeypatch):
    store, log = make_store(), QueryLog()

    def query(names, order):
        s, v, w, x, y = (Variable(n) for n in names)
        where = [
            TriplePattern(s, vocab.TYPE, VITALS),
            TriplePattern(s, HR, v),
            TriplePattern(s, HR, w),
            TriplePattern(x, HR, y),
            TriplePattern(x, vocab.TYPE, VITALS),
        ]
        return Query([s, w], [where[i] for i in order], [Filter(v, ">", integer(60))], [CENTRAL])

    first = query("svwxy", range(5))
    again = query(("rec", "lo", "hi", "other", "val"), (2, 4, 0, 3, 1))
    ranked = counted_rankings(monkeypatch)
    assert process_query(first, log, store)[1] == "miss-generated"
    assert process_query(again, log, store)[1] == "hit"
    assert len(log) == 1
    # within each call: the select and filter split ?s, ?v and ?w at the
    # start, and one round splits ?x and ?y by the patterns they occur in
    assert ranked == [3, 2, 2] * 2


def renamed_and_shuffled(q: Query, rng: random.Random) -> Query:
    """q with its variables renamed at random and its patterns shuffled."""
    names = sorted({t.name for p in q.where for t in (p.subject, p.predicate, p.object) if isinstance(t, Variable)})
    fresh = [f"n{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    to = {old: Variable(new) for old, new in zip(names, fresh)}

    def rename(t):
        return to[t.name] if isinstance(t, Variable) else t

    where = [TriplePattern(rename(p.subject), rename(p.predicate), rename(p.object)) for p in q.where]
    rng.shuffle(where)
    filters = [Filter(rename(f.var), f.op, f.value) for f in q.filters]
    return Query([rename(v) for v in q.select], where, filters, q.graph_scope)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_renamed_shuffled_queries_with_a_shared_predicate_keep_their_signature(n):
    rng = random.Random(f"shared-predicate:{n}")
    shared = Iri("urn:sem:p")
    misses = 0
    for _ in range(60):
        xs = [Variable(f"x{i}") for i in range(n)]
        where = [
            TriplePattern(
                rng.choice(xs[: i + 1]),
                shared if i % 2 == 0 else Iri(f"urn:sem:q{rng.randrange(3)}"),
                xs[i] if rng.random() < 0.7 else rng.choice(xs),
            )
            for i in range(n)
        ]
        q = Query([where[0].subject], where)
        if query_signature(q) != query_signature(renamed_and_shuffled(q, rng)):
            misses += 1
    assert misses == 0


def test_one_shape_query_refines_in_few_rounds(monkeypatch):
    # trying every order of these 6 patterns took 720 orders per call
    s = Variable("s")
    q = Query([s], [TriplePattern(s, Iri("urn:sem:p"), Variable(f"o{i}")) for i in range(6)])
    rng = random.Random(27)
    ranked = counted_rankings(monkeypatch)
    signature = query_signature(q)
    # every round either splits a colour or breaks a tie, so 7 variables
    # take at most 7 rounds and 7 tie breaks after the start colouring
    assert len(ranked) <= 1 + 2 * 7
    assert {query_signature(renamed_and_shuffled(q, rng)) for _ in range(20)} == {signature}


def test_near_twin_queries_never_share_a_signature():
    a, b, c, d, e, f = (Variable(n) for n in "abcdef")
    p = Iri("urn:sem:p")

    def query(*pairs):
        return Query([a], [TriplePattern(x, p, y) for x, y in pairs])

    twins = [
        query((a, b), (b, c)),
        query((a, b), (c, b)),
        query((a, b), (a, c)),
        query((b, a), (c, b)),
        query((a, b), (b, a)),
        # refinement alone cannot tell two triangles from one hexagon
        query((a, b), (b, c), (c, a), (d, e), (e, f), (f, d)),
        query((a, b), (b, c), (c, d), (d, e), (e, f), (f, a)),
    ]
    assert len({query_signature(q) for q in twins}) == len(twins)
    rng = random.Random(5)
    for q in twins:
        assert query_signature(renamed_and_shuffled(q, rng)) == query_signature(q)


def test_ties_in_one_connected_set_leave_the_others_alone():
    # refinement alone leaves every cycle's variables tied, so each cycle
    # needs a tie broken; which cycle comes first in the input moves nothing
    p = Iri("urn:sem:p")
    xs = [Variable(f"x{i}") for i in range(12)]

    def cycle(vs):
        return [TriplePattern(v, p, vs[(i + 1) % len(vs)]) for i, v in enumerate(vs)]

    s = Variable("s")
    queries = [
        Query([s], [TriplePattern(s, Iri("urn:sem:q"), Iri("urn:sem:c"))] + cycle(xs[:2]) + cycle(xs[2:5])),
        Query([xs[0]], cycle(xs[:3]) + cycle(xs[3:6]) + cycle(xs[6:12])),
        Query([], cycle(xs[:4]) + cycle(xs[4:6]) + cycle(xs[6:8]) + cycle(xs[8:12])),
    ]
    rng = random.Random(19)
    for q in queries:
        assert {query_signature(renamed_and_shuffled(q, rng)) for _ in range(30)} == {query_signature(q)}


_SIGNATURE_CORPUS = """
import random, sys
from semhub.interop import query_signature
from semhub.semantic import Filter, Iri, Query, TriplePattern, Variable, decimal, integer, string
rng = random.Random(1907)
objects = [Iri("urn:t:o"), integer(7), decimal("61.5"), string("a b")]
signatures = []
for n in range(1, 11):
    for _ in range(6):
        xs = [Variable(f"x{i}") for i in range(n + 1)]
        where = [
            TriplePattern(rng.choice(xs[: i + 1]), Iri(f"urn:t:p{rng.randrange(3)}"), xs[i + 1])
            for i in range(n)
        ]
        where.append(TriplePattern(rng.choice(xs), Iri("urn:t:q"), rng.choice(objects)))
        filters = [Filter(rng.choice(xs), rng.choice(["<", ">", "="]), integer(rng.randrange(100)))]
        graphs = [Iri(f"urn:t:g{i}") for i in range(rng.randrange(3))]
        signatures.append(query_signature(Query([xs[0]], where, filters, graphs)))
sys.stdout.write("\\n".join(signatures))
"""


def test_signatures_do_not_depend_on_the_hash_seed():
    runs = [
        subprocess.run(
            [sys.executable, "-c", _SIGNATURE_CORPUS], capture_output=True, text=True, check=True,
            env=source_env(PYTHONHASHSEED=seed),
        ).stdout.split()
        for seed in ("0", "1")
    ]
    assert len(runs[0]) == 60
    assert len(set(runs[0])) == 60
    assert runs[0] == runs[1]


def test_different_constants_are_distinct():
    q1, q2 = hr_query(), hr_query()
    q3 = Query(q2.select, q2.where, [Filter(Variable("v"), ">", integer(61))], q2.graph_scope)
    assert query_signature(q1) == query_signature(q2)
    assert query_signature(q1) != query_signature(q3)


def test_select_order_distinguishes():
    q = hr_query()
    swapped = Query(tuple(reversed(q.select)), q.where, q.filters, q.graph_scope)
    assert query_signature(q) != query_signature(swapped)


def test_hit_results_reflect_live_store():
    store, log = make_store(), QueryLog()
    before, _ = process_query(hr_query(), log, store)
    store.insert(CENTRAL, Triple(Iri("urn:t:c"), vocab.TYPE, VITALS))
    store.insert(CENTRAL, Triple(Iri("urn:t:c"), HR, integer(99)))
    after, status = process_query(hr_query(), log, store)
    assert status == "hit"
    assert len(after) == len(before) + 1


def test_hit_keeps_caller_variable_names():
    store, log = make_store(), QueryLog()
    process_query(hr_query("s", "v"), log, store)
    result, _ = process_query(hr_query("x", "y"), log, store)
    assert result.variables == (Variable("x"), Variable("y"))


def test_canonical_order_does_not_decide_the_join():
    # The signature orders patterns by predicate, which puts heartRate second
    # here: joined in that order, 400 x 400 rows of two patterns that share
    # no variable would pass MAX_BINDINGS.  The plan joins on ?r, then ?x.
    dia, sys_, hr = (Iri(f"urn:sem:{p}") for p in ("diastolicPressure", "systolicPressure", "heartRate"))
    store = GraphStore()
    for i in range(400):
        record, reading = Iri(f"urn:t:record:{i}"), Iri(f"urn:t:reading:{i}")
        store.insert(CENTRAL, Triple(record, dia, integer(70 + i % 20)))
        store.insert(CENTRAL, Triple(record, sys_, integer(100 + i % 60)))
        store.insert(CENTRAL, Triple(reading, hr, integer(100 + i % 45)))
    r, s, d, x = (Variable(n) for n in "rsdx")
    q = Query([r, s], [TriplePattern(r, dia, d), TriplePattern(r, sys_, x), TriplePattern(s, hr, x)],
              graph_scope=[CENTRAL])
    assert 400 * 400 > MAX_BINDINGS
    expected = solve_query(store.snapshot([CENTRAL]), q)
    assert len(expected) > 0
    result, status = process_query(q, QueryLog(), store)
    assert status == "miss-generated"
    assert result.rows == expected.rows


def test_refused_query_is_neither_logged_nor_counted(monkeypatch):
    monkeypatch.setattr("semhub.semantic.MAX_BINDINGS", 10)  # the store holds 4 triples
    store = make_store()
    services = InteropServices(store)
    v = Variable("v")
    for other in ("urn:t:x", "urn:t:y", "urn:t:z"):  # a literal never compares with an IRI
        q = Query([v], [TriplePattern(Variable("s"), HR, v)], [Filter(v, ">", Iri(other))], [CENTRAL])
        with pytest.raises(ComparisonTypeError):
            services.process_query(q)
    a, b, c, d, p, r = (Variable(n) for n in "abcdpr")
    cross = Query([a, b, c, d], [TriplePattern(a, p, b), TriplePattern(c, r, d)])
    with pytest.raises(BindingLimitExceeded):
        services.process_query(cross)
    assert len(services.query_log) == 0
    assert services.counters["query"] == 0
    _, status = services.process_query(hr_query())
    assert status == "miss-generated"
    assert (len(services.query_log), services.counters["query"]) == (1, 1)


def test_query_log_forgets_its_oldest_signature(monkeypatch):
    monkeypatch.setattr(interop, "QUERY_LOG_CAPACITY", 8)
    store, log = make_store(), QueryLog()

    def query(i):
        v = Variable("v")
        return Query([v], [TriplePattern(Variable("s"), HR, v)], [Filter(v, ">", integer(i))], [CENTRAL])

    statuses = [process_query(query(i), log, store)[1] for i in range(8 + 5)]
    assert statuses == ["miss-generated"] * 13
    assert len(log) == 8
    assert process_query(query(12), log, store)[1] == "hit"
    assert process_query(query(0), log, store)[1] == "miss-generated"  # evicted, logged again
    assert len(log) == 8
    assert process_query(query(5), log, store)[1] == "miss-generated"  # pushed out by query(0)


def test_signature_corpus_distinct():
    rng = random.Random(7)
    signatures = set()
    n = 120
    for i in range(n):
        v = Variable("v")
        s = Variable("s")
        q = Query(
            select=[s],
            where=[
                TriplePattern(s, vocab.TYPE, Iri(f"urn:t:class:C{i}")),
                TriplePattern(s, HR, v),
            ],
            filters=[Filter(v, ">", integer(rng.randrange(1000)))],
            graph_scope=[CENTRAL],
        )
        signatures.add(query_signature(q))
    assert len(signatures) == n


# --- composition ------------------------------------------------------------

def shared_ctx():
    return OntologyContext(
        name="shared",
        classes=frozenset([VITALS]),
        predicates={HR: PredicateSpec(VITALS, "integer", functional=True)},
    )


def test_pipeline_alignment_fixes_validation():
    rec = RelationalRecord("vitals", "id", {"id": 3, "hr": 88})
    local = TranslationMapping(
        name="vitals",
        table="vitals",
        class_iri=vocab.MED_PATIENT,
        subject_template="urn:med:patient:{pk}",
        column_map=(("hr", vocab.MED_HR, "integer"),),
    )
    amap = AlignmentMap.build(
        "med",
        [
            (vocab.MED_HR, HR, "equivalent"),
            (vocab.MED_PATIENT, VITALS, "equivalent"),
        ],
    )
    ctx = shared_ctx()
    translated = translate_relational([rec], local)
    with_alignment = validate_description(
        annotate(align(translated, amap), ctx), ctx
    )
    assert with_alignment.valid
    without_alignment = validate_description(annotate(translated, ctx), ctx)
    assert not without_alignment.valid
    reasons = {v.reason for v in without_alignment.violations}
    assert "unknown-predicate" in reasons


def test_interop_facade_counters():
    store = GraphStore()
    services = InteropServices(store)
    services.annotate([], shared_ctx())
    services.annotate([], shared_ctx())
    services.process_query(Query([], [], (), [CENTRAL]))
    assert services.counters["annotate"] == 2
    assert services.counters["query"] == 1
    assert services.counters["translate"] == 0
