import random

import pytest

from semhub.errors import (
    ComparisonTypeError,
    MalformedIri,
    MalformedLiteral,
    UnboundVariable,
)
from semhub.semantic import (
    BindingSet,
    Filter,
    GraphStore,
    Iri,
    Literal,
    Query,
    Triple,
    TriplePattern,
    Variable,
    boolean,
    decimal,
    integer,
    query_from_json,
    query_to_json,
    serialize_triple,
    string,
)
from oracles import oracle_evaluate, random_store_and_query

G = Iri("urn:t:graph:main")
S = Iri("urn:t:s")
P = Iri("urn:t:p")


def test_iri_validation():
    Iri("urn:x:ok")
    Iri("http://example.org/a")
    for bad in ("", "no-scheme", "urn:with space", "tab\there:x"):
        with pytest.raises(MalformedIri):
            Iri(bad)


def test_literal_validation():
    assert Literal("42", "integer").value() == 42
    assert Literal("-7", "integer").value() == -7
    assert Literal("3.25", "decimal").value() == decimal("3.25").value()
    assert Literal("true", "boolean").value() is True
    assert Literal("2024-01-01T00:00:00+00:00", "dateTime").value().year == 2024
    for lex, dt in [
        ("4.2", "integer"),
        ("abc", "integer"),
        ("nan", "decimal"),
        ("1e3", "decimal"),
        ("True", "boolean"),
        ("1", "boolean"),
        ("yesterday", "dateTime"),
        ("x", "float"),
    ]:
        with pytest.raises(MalformedLiteral):
            Literal(lex, dt)


def test_literal_equality_is_lexical():
    assert Literal("1", "integer") != Literal("01", "integer")
    assert Literal("1", "integer") != Literal("1", "string")
    assert Literal("1", "integer") == integer(1)


def test_triple_positions_enforced():
    with pytest.raises(MalformedIri):
        Triple(S, P, Variable("v"))  # type: ignore[arg-type]
    with pytest.raises(MalformedIri):
        Triple(S, string("p"), S)  # type: ignore[arg-type]


def test_serialization_round_trip():
    """Each term kind serializes to one exact line, with escapes applied."""
    cases = [
        (Iri("urn:t:o"), "<urn:t:o>"),
        (string('quote " back \\ slash'), r'"quote \" back \\ slash"^^string'),
        (string("line\nbreak\ttab\rret"), r'"line\nbreak\ttab\rret"^^string'),
        (integer(-12), '"-12"^^integer'),
        (decimal("0.5"), '"0.5"^^decimal'),
        (boolean(False), '"false"^^boolean'),
        (
            Literal("2024-06-01T12:30:00+00:00", "dateTime"),
            '"2024-06-01T12:30:00+00:00"^^dateTime',
        ),
    ]
    for obj, expected in cases:
        assert serialize_triple(Triple(S, P, obj)) == f"<urn:t:s> <urn:t:p> {expected} ."


def test_store_set_semantics():
    store = GraphStore()
    t = Triple(S, P, integer(1))
    assert store.insert(G, t) is True
    assert store.insert(G, t) is False
    assert store.graph_size(G) == 1
    assert store.remove(G, t) is True
    assert store.remove(G, t) is False


def test_match_pattern():
    store = GraphStore()
    store.insert(G, Triple(S, P, integer(1)))
    store.insert(G, Triple(S, P, integer(2)))
    store.insert(G, Triple(Iri("urn:t:s2"), P, integer(1)))
    got = store.match([G], TriplePattern(Variable("s"), P, Variable("o")))
    assert got.variables == (Variable("s"), Variable("o"))
    assert len(got) == 3
    got2 = store.match([G], TriplePattern(S, P, Variable("o")))
    assert [row[0] for row in got2.rows] == [integer(1), integer(2)]


def test_query_join_and_filter():
    store = GraphStore()
    knows = Iri("urn:t:knows")
    age = Iri("urn:t:age")
    a, b, c = Iri("urn:t:a"), Iri("urn:t:b"), Iri("urn:t:c")
    store.insert(G, Triple(a, knows, b))
    store.insert(G, Triple(b, knows, c))
    store.insert(G, Triple(b, age, integer(30)))
    store.insert(G, Triple(c, age, integer(20)))
    x, y = Variable("x"), Variable("y")
    q = Query(
        select=[x, y],
        where=[TriplePattern(x, knows, y), TriplePattern(y, age, Variable("n"))],
        filters=[Filter(Variable("n"), ">", integer(25))],
        graph_scope=[G],
    )
    got = store.evaluate(q)
    assert got.rows == ((a, b),)


def test_query_empty_where_is_empty():
    store = GraphStore()
    store.insert(G, Triple(S, P, integer(1)))
    got = store.evaluate(Query(select=[], where=[], graph_scope=[G]))
    assert got.rows == ()


def test_query_unbound_variable_rejected():
    with pytest.raises(UnboundVariable):
        Query(select=[Variable("x")], where=[TriplePattern(S, P, Variable("y"))])
    with pytest.raises(UnboundVariable):
        Query(
            select=[],
            where=[TriplePattern(S, P, Variable("y"))],
            filters=[Filter(Variable("z"), "=", integer(1))],
        )


def test_filter_type_mismatch_raises():
    store = GraphStore()
    store.insert(G, Triple(S, P, string("5")))
    q = Query(
        select=[Variable("o")],
        where=[TriplePattern(S, P, Variable("o"))],
        filters=[Filter(Variable("o"), "<", integer(9))],
        graph_scope=[G],
    )
    with pytest.raises(ComparisonTypeError):
        store.evaluate(q)


def test_iri_ordering_comparison_rejected():
    store = GraphStore()
    store.insert(G, Triple(S, P, Iri("urn:t:o")))
    q = Query(
        select=[Variable("o")],
        where=[TriplePattern(S, P, Variable("o"))],
        filters=[Filter(Variable("o"), "<", Iri("urn:t:z"))],
        graph_scope=[G],
    )
    with pytest.raises(ComparisonTypeError):
        store.evaluate(q)


def test_graph_scope_isolation():
    store = GraphStore()
    g2 = Iri("urn:t:graph:other")
    store.insert(G, Triple(S, P, integer(1)))
    store.insert(g2, Triple(S, P, integer(2)))
    q_one = Query([Variable("o")], [TriplePattern(S, P, Variable("o"))], (), [G])
    q_all = Query([Variable("o")], [TriplePattern(S, P, Variable("o"))], (), [])
    assert [r[0] for r in store.evaluate(q_one).rows] == [integer(1)]
    assert len(store.evaluate(q_all)) == 2


def test_rows_deduplicated_and_sorted():
    store = GraphStore()
    p2 = Iri("urn:t:p2")
    store.insert(G, Triple(S, P, integer(2)))
    store.insert(G, Triple(S, p2, integer(2)))
    store.insert(G, Triple(S, P, integer(1)))
    q = Query(
        select=[Variable("o")],
        where=[TriplePattern(S, Variable("p"), Variable("o"))],
        graph_scope=[G],
    )
    got = store.evaluate(q)
    assert got.rows == ((integer(1),), (integer(2),))


def test_query_json_round_trip():
    q = Query(
        select=[Variable("x"), Variable("n")],
        where=[
            TriplePattern(Variable("x"), P, Variable("n")),
            TriplePattern(Variable("x"), Iri("urn:t:q"), string("hi")),
        ],
        filters=[Filter(Variable("n"), ">=", integer(3))],
        graph_scope=[G],
    )
    doc = query_to_json(q)
    assert doc["select"] == ["?x", "?n"]
    assert query_from_json(doc) == q


def _check_against_oracle(store, graphs, q, seed):
    try:
        expect = oracle_evaluate(graphs, q)
    except ComparisonTypeError:
        with pytest.raises(ComparisonTypeError):
            store.evaluate(q)
        return
    got = store.evaluate(q)
    assert got.variables == expect.variables
    assert got.rows == expect.rows, f"seed={seed}"


def _run_case(seed: int):
    rng = random.Random(seed)
    graphs, q = random_store_and_query(rng)
    store = GraphStore()
    for g, triples in graphs.items():
        for t in triples:
            store.insert(g, t)
    _check_against_oracle(store, graphs, q, seed)


@pytest.mark.parametrize("seed", range(40))
def test_engine_matches_enumeration_oracle(seed):
    _run_case(seed)


def test_result_order_stable_under_insertion_order():
    rng = random.Random(99)
    graphs, q = random_store_and_query(rng)
    flat = [(g, t) for g, ts in graphs.items() for t in ts]
    try:
        base = None
        store = GraphStore()
        for g, t in flat:
            store.insert(g, t)
        base = store.evaluate(q)
        for _ in range(3):
            rng.shuffle(flat)
            other = GraphStore()
            for g, t in flat:
                other.insert(g, t)
            assert other.evaluate(q).rows == base.rows
    except ComparisonTypeError:
        pass


# --- cached per-graph indexes ------------------------------------------------

G1 = Iri("urn:t:graph:g1")
G2 = Iri("urn:t:graph:g2")


@pytest.mark.parametrize("seed", range(8))
def test_cached_indexes_follow_writes(seed):
    """Every write between evaluations is seen: per-graph indexes cached by
    one evaluation are dropped by the next insert, remove or clear."""
    rng = random.Random(seed)
    pool, _ = random_store_and_query(rng)
    triples = [t for ts in pool.values() for t in ts]
    store = GraphStore()
    model: dict[Iri, dict[Triple, None]] = {}
    for _ in range(40):
        g = rng.choice((G1, G2))
        op = rng.random()
        if op < 0.5:
            t = rng.choice(triples)
            store.insert(g, t)
            model.setdefault(g, {})[t] = None
        elif op < 0.9:
            t = rng.choice(list(model.get(g, ())) or triples)
            store.remove(g, t)
            model.get(g, {}).pop(t, None)
        else:
            store.clear_graph(g)
            model.pop(g, None)
        for name in (G1, G2):
            assert store.snapshot([name]).triples == list(model.get(name, ()))
        _, q = random_store_and_query(rng)
        graphs = {name: list(ts) for name, ts in model.items()}
        for scope in ((), (G1,), (G1, G2)):
            scoped = Query(q.select, q.where, q.filters, scope)
            _check_against_oracle(store, graphs, scoped, seed)


def test_snapshot_unchanged_by_later_writes():
    store = GraphStore()
    a, b, c = (Triple(S, P, integer(i)) for i in range(3))
    store.insert(G1, a)
    store.insert(G1, b)
    store.insert(G2, c)
    one = store.snapshot([G1])
    both = store.snapshot([G1, G2])
    assert store.snapshot([G1]) is one, "an unchanged graph is not re-indexed"
    store.remove(G1, a)
    assert store.snapshot([G1]).triples == [b]
    store.insert(G1, c)
    assert store.snapshot([G1]).triples == [b, c]
    store.clear_graph(G2)
    assert store.snapshot([G2]).triples == []
    assert len(one) == 2 and a in one and b in one and c not in one
    assert len(both) == 3 and all(t in both for t in (a, b, c))
    assert store.snapshot([G1, G2]).triples == [b, c]


def test_bound_subject_narrows_candidates():
    """The README join: with ?record bound, its heart-rate pattern looks at
    that record's triples only, not at every heart-rate triple."""
    record_class = Iri("urn:t:class:VitalsRecord")
    type_, hr = Iri("urn:t:type"), Iri("urn:t:heartRate")
    records = [Iri(f"urn:t:record:{i}") for i in range(50)]
    store = GraphStore()
    for i, r in enumerate(records):
        store.insert(G, Triple(r, type_, record_class))
        store.insert(G, Triple(r, hr, integer(60 + i)))
    index = store.snapshot([G])
    record = Variable("record")
    pattern = TriplePattern(record, hr, Variable("hr"))
    got = index.candidates(pattern, {record: records[7]})
    assert got == [
        Triple(records[7], type_, record_class),
        Triple(records[7], hr, integer(67)),
    ]
    assert len(index.candidates(pattern, {})) == 50
