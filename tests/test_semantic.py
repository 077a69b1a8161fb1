import copy
import dataclasses
import json
import pickle
import random
import subprocess
import sys
from decimal import Decimal

import pytest

from semhub import semantic
from semhub.errors import (
    BindingLimitExceeded,
    ComparisonTypeError,
    MalformedIri,
    MalformedLiteral,
    MalformedQuery,
    UnboundVariable,
)
from semhub.semantic import (
    MAX_QUERY_PATTERNS,
    BindingSet,
    Filter,
    GraphStore,
    Iri,
    Literal,
    Plan,
    Query,
    Triple,
    TriplePattern,
    Variable,
    boolean,
    decimal,
    integer,
    query_from_json,
    query_to_json,
    serialize_term,
    serialize_triple,
    string,
    term_from_json,
)
from children import source_env
from oracles import oracle_evaluate, random_store_and_query
from records import check_record

G = Iri("urn:t:graph:main")
S = Iri("urn:t:s")
P = Iri("urn:t:p")


def test_iri_validation():
    Iri("urn:x:ok")
    Iri("http://example.org/a")
    for bad in ("", "no-scheme", "urn:with space", "tab\there:x"):
        with pytest.raises(MalformedIri):
            Iri(bad)
    for bad in (5, None, b"urn:x", ["urn:x"]):
        with pytest.raises(MalformedIri):
            Iri(bad)


def test_iri_is_a_str_with_str_hashing_and_equality():
    assert Iri.__hash__ is str.__hash__
    assert Iri.__eq__ is str.__eq__ and Iri.__ne__ is str.__ne__
    a, b = Iri("urn:t:" + "key"), Iri("urn:t:key")  # built separately
    assert a is not b and a == b and hash(a) == hash(b) == hash("urn:t:key")
    keys = {a: 1}
    keys[b] = 2
    assert len(keys) == 1 and keys[Iri("urn:t:key")] == 2
    # an IRI equals its own string, by design; never a literal or variable
    assert Iri("urn:x") == "urn:x" and "urn:x" == Iri("urn:x")
    assert Iri("urn:x") != Literal("urn:x") and Literal("urn:x") != Iri("urn:x")
    assert Iri("urn:x") != Variable("x") and Iri("urn:x") not in {Literal("urn:x")}
    assert sorted([Iri("urn:b"), Iri("urn:a")]) == [Iri("urn:a"), Iri("urn:b")]
    assert type(str(a)) is str and str(a) == "urn:t:key"
    assert type(a.value) is str and a.value == "urn:t:key"
    assert repr(a) == "Iri(value='urn:t:key')"
    assert Iri(value="urn:t:key") == a


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_iri_pickle_and_copy_round_trip(protocol):
    a = Iri("urn:t:s")
    for back in (pickle.loads(pickle.dumps(a, protocol)), copy.copy(a), copy.deepcopy(a)):
        assert type(back) is Iri and back == a and hash(back) == hash(a)
    t = Triple(a, P, integer(3))
    assert pickle.loads(pickle.dumps(t, protocol)) == t


@pytest.mark.parametrize("space", [" ", "\x1c", "\u3000", "\n"], ids=repr)
def test_whitespace_rejected_in_iri_and_variable(space):
    with pytest.raises(MalformedIri):
        Iri(f"urn:t:a{space}b")
    with pytest.raises(MalformedIri):
        Variable(f"a{space}b")


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
        ("", "integer"),
        ("0x1f", "integer"),
        ("NaN", "decimal"),
        ("1E+2", "decimal"),
        ("Infinity", "decimal"),
        (".", "decimal"),
        ("1,5", "decimal"),
        ("FALSE", "boolean"),
        ("false ", "boolean"),
        ("2024-13-01", "dateTime"),
        # `$` matched before a final newline, so these were once accepted
        ("5\n", "integer"),
        ("1.5\n", "decimal"),
    ]:
        with pytest.raises(MalformedLiteral):
            Literal(lex, dt)


WELL_FORMED = {
    "string": ("", "abc", "a\nb", "quote \" back \\ slash"),
    "integer": ("0", "-7", "+12", "007", "123456789012345678901234567890"),
    "decimal": ("0", "-0", "61.5", "+.5", "5.", "0.000001", "-12.340"),
    "boolean": ("true", "false"),
    "dateTime": ("2024-01-01T00:00:00+00:00", "2024-06-01T12:30:00", "2024-06-01"),
}


def test_literal_value_is_parsed_once_and_kept():
    for dt, forms in WELL_FORMED.items():
        for lex in forms:
            lit = Literal(lex, dt)
            parsed = semantic._parse_literal(lex, dt)
            assert lit.value() == parsed and type(lit.value()) is type(parsed)
            assert lit.value() is lit.value()  # kept, not parsed per call
            assert "_value" not in repr(lit)
            # the kept value takes no part in comparison or hashing
            other = Literal(lex, dt)
            object.__setattr__(other, "_value", None)
            assert other == lit and hash(other) == hash(lit)


def test_literal_is_a_slotted_frozen_record():
    check_record(
        Literal, ("61.5", "decimal"), "Literal(lexical='61.5', datatype='decimal')",
        ("lexical", "62.0"),
    )
    assert dataclasses.replace(integer(3), lexical="4").value() == 4
    with pytest.raises(MalformedLiteral):
        dataclasses.replace(integer(3), lexical="x")
    assert Literal("x") == Literal(lexical="x", datatype="string") == string("x")


def test_integer_and_decimal_build_what_their_lexical_form_parses_to():
    rng = random.Random(1801)
    numbers = [rng.randint(-10**12, 10**12) for _ in range(200)] + [0, True, False, 7.9, "12", "-3"]
    for n in numbers:
        built, parsed = integer(n), Literal(str(int(n)), "integer")
        assert built == parsed and hash(built) == hash(parsed)
        assert built.value() == parsed.value() and type(built.value()) is int
    values = [f"{rng.uniform(-1e4, 1e4):.{rng.randint(0, 6)}f}" for _ in range(200)]
    values += [0, 7, -2.5, 61.5, Decimal("1.50"), ".5", "5.", "+3.0", "-0", "0.000001"]
    for x in values:
        built, parsed = decimal(x), Literal(str(Decimal(str(x))), "decimal")
        assert built == parsed and hash(built) == hash(parsed)
        assert built.value() == parsed.value()
        assert str(built.value()) == built.lexical  # same digits and exponent
    for bad in ("1e2", "NaN", "Infinity", 1e-7):
        with pytest.raises(MalformedLiteral):
            decimal(bad)
    with pytest.raises(ValueError):
        integer("x")


_PICKLE_TERMS = """
from semhub.semantic import Iri, Literal, Triple, decimal, integer
terms = [
    Triple(Iri("urn:t:s"), Iri("urn:t:p"), decimal("61.5")),
    Triple(Iri("urn:t:s"), Iri("urn:t:p"), Iri("urn:t:o")),
    Triple(Iri("urn:t:s"), Iri("urn:t:p"), Literal("2024-06-01T12:30:00", "dateTime")),
    integer(-12),
    Literal("a\\tb"),
]
"""


def test_triples_and_literals_pickled_under_one_hash_seed_load_under_another():
    dump = _PICKLE_TERMS + (
        "import pickle, sys\n"
        "sys.stdout.write(repr([pickle.dumps(t, p) for t in terms for p in range(pickle.HIGHEST_PROTOCOL + 1)]))\n"
    )
    load = _PICKLE_TERMS + (
        "import ast, pickle, sys\n"
        "dumps = ast.literal_eval(sys.stdin.read())\n"
        "per = pickle.HIGHEST_PROTOCOL + 1\n"
        "for i, data in enumerate(dumps):\n"
        "    back, here = pickle.loads(data), terms[i // per]\n"
        "    assert type(back) is type(here), (i, back)\n"
        "    assert back == here and here == back and hash(back) == hash(here), (i, back)\n"
        "    assert back in {here} and here in {back}, (i, back)\n"
        "    if isinstance(here, Literal):\n"
        "        assert back.value() == here.value(), (i, back)\n"
        "print(len(dumps))\n"
    )
    dumped = subprocess.run(
        [sys.executable, "-c", dump], capture_output=True, text=True, check=True,
        env=source_env(PYTHONHASHSEED="1"),
    )
    loaded = subprocess.run(
        [sys.executable, "-c", load], input=dumped.stdout, capture_output=True, text=True,
        env=source_env(PYTHONHASHSEED="2"),
    )
    assert loaded.returncode == 0, loaded.stderr
    assert int(loaded.stdout) == 5 * (pickle.HIGHEST_PROTOCOL + 1)


def test_serialize_term_skips_escaping_only_where_nothing_escapes():
    rng = random.Random(1802)
    literals = [integer(rng.randint(-10**9, 10**9)) for _ in range(100)]
    literals += [decimal(f"{rng.uniform(-1e4, 1e4):.{rng.randint(0, 4)}f}") for _ in range(100)]
    literals += [boolean(True), boolean(False), Literal("+007", "integer"), Literal(".5", "decimal")]
    for lit in literals:
        assert serialize_term(lit) == f'"{semantic._escape(lit.lexical)}"^^{lit.datatype}'
    for c, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t")):
        assert serialize_term(string(f"a{c}b")) == f'"a{escaped}b"^^string'
        # fromisoformat takes any one character between date and time
        stamp = Literal(f"2024-01-01{c}12:00:00+00:00", "dateTime")
        assert serialize_term(stamp) == f'"2024-01-01{escaped}12:00:00+00:00"^^dateTime'


def test_literal_equality_is_lexical():
    assert Literal("1", "integer") != Literal("01", "integer")
    assert Literal("1", "integer") != Literal("1", "string")
    assert Literal("1", "integer") == integer(1)


def test_triple_positions_enforced():
    with pytest.raises(MalformedIri):
        Triple(S, P, Variable("v"))  # type: ignore[arg-type]
    with pytest.raises(MalformedIri):
        Triple(S, string("p"), S)  # type: ignore[arg-type]


def test_triples_of_equal_terms_are_one_triple():
    # each triple from its own term objects, so nothing is shared by identity
    a = Triple(Iri("urn:t:s"), Iri("urn:t:p"), Literal("7", "integer"))
    b = Triple(Iri("urn:t:s"), Iri("urn:t:p"), integer(7))
    assert a is not b and a.subject is not b.subject
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    store = GraphStore()
    assert store.insert_all(G, [a, b]) == 1
    assert store.insert(G, b) is False
    assert store.triples(G) == [a]
    assert store.remove(G, b) is True and store.graph_size(G) == 0
    assert Iri("urn:x") != Literal("urn:x") and Literal("urn:x") != Iri("urn:x")
    assert Triple(S, P, S) != (S, P, S)
    assert Triple(S, P, integer(1)) != Triple(S, P, Literal("1", "string"))
    moved = dataclasses.replace(a, object=integer(8))
    assert moved == Triple(S, P, integer(8)) and hash(moved) == hash(Triple(S, P, integer(8)))
    assert moved != a
    assert "_hash" not in repr(a)


def test_insert_all_creates_a_graph_only_with_its_first_triple():
    store = GraphStore()
    assert store.insert_all(G, []) == 0
    assert not store.has_graph(G)
    t = Triple(S, P, integer(1))
    assert store.insert_all(G, [t, t]) == 1
    cached = store.snapshot([G])
    assert t in cached.triples
    assert store.insert_all(G, [t]) == 0
    assert store.snapshot([G]) is cached  # nothing added: the index stays


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


def test_join_past_the_binding_limit_is_refused(monkeypatch):
    store = GraphStore()
    for i in range(5):
        store.insert(G, Triple(Iri(f"urn:t:s{i}"), P, integer(i)))
    a, b, c, d = (Variable(n) for n in "abcd")
    cross = Query([a, b, c, d], [TriplePattern(a, P, b), TriplePattern(c, P, d)])
    joined = []  # the length of each candidate list the join fetches
    candidates = semantic.Step.candidates

    def counted(step, index, row):
        found = candidates(step, index, row)
        joined.append(len(found[0]))
        return found

    monkeypatch.setattr(semantic.Step, "candidates", counted)
    monkeypatch.setattr(semantic, "MAX_BINDINGS", 10)
    with pytest.raises(BindingLimitExceeded, match="more than 10 intermediate bindings"):
        store.evaluate(cross)
    # the first step, then the candidates of three partial bindings: the
    # count is checked before the fourth partial binding's are joined
    assert joined == [5, 5, 5, 5]
    assert sum(joined) == 5 + 3 * 5
    monkeypatch.setattr(semantic, "MAX_BINDINGS", 25)
    assert len(store.evaluate(cross)) == 25


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


def _star_or_chain(shape: str, n: int) -> dict:
    if shape == "star":
        where = [["?s", "urn:t:p", f"?o{i}"] for i in range(n)]
    else:
        where = [[f"?x{i}", "urn:t:p", f"?x{i + 1}"] for i in range(n)]
    return {"select": [where[0][0]], "where": where}


@pytest.mark.parametrize("shape", ["star", "chain"])
def test_query_documents_past_the_pattern_bound_are_refused(shape):
    # signing a query for the query log takes time quadratic in its
    # variables, so a document from outside may not hold more patterns
    assert len(query_from_json(_star_or_chain(shape, MAX_QUERY_PATTERNS)).where) == MAX_QUERY_PATTERNS
    for n in (MAX_QUERY_PATTERNS + 1, 10_000):
        with pytest.raises(MalformedQuery, match=f"^where holds {n} patterns; a query may hold at most"):
            query_from_json(_star_or_chain(shape, n))


def test_json_booleans_are_boolean_literals():
    assert term_from_json({"value": True, "type": "boolean"}) == boolean(True)
    assert term_from_json({"value": False, "type": "boolean"}) == boolean(False)


def test_json_integers_are_their_digits():
    assert term_from_json({"value": 42, "type": "integer"}) == integer(42)
    assert term_from_json({"value": -7}) == string("-7")


def test_json_floats_are_plain_decimals():
    assert term_from_json({"value": 1e20, "type": "decimal"}) == Literal(
        "100000000000000000000", "decimal"
    )
    assert term_from_json({"value": 2.5e-3, "type": "decimal"}) == Literal("0.0025", "decimal")
    assert term_from_json({"value": 36.6, "type": "decimal"}) == Literal("36.6", "decimal")


@pytest.mark.parametrize("value", [None, ["a"], {"value": "x"}], ids=json.dumps)
def test_json_null_list_and_object_are_not_literals(value):
    with pytest.raises(MalformedLiteral, match="must be a JSON string, boolean or number"):
        term_from_json({"value": value, "type": "string"})


def test_json_number_filter_constant_is_applied():
    """A filter value given as a JSON number compares like its string form."""
    store = GraphStore()
    for i in range(5):
        store.insert(G, Triple(Iri(f"urn:t:s{i}"), P, decimal(i)))
    doc = {
        "select": ["?s"],
        "where": [["?s", P.value, "?v"]],
        "filters": [{"var": "?v", "op": ">", "value": {"value": 2.5, "type": "decimal"}}],
    }
    got = store.evaluate(query_from_json(doc))
    assert [r[0].value for r in got.rows] == ["urn:t:s3", "urn:t:s4"]


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
    one evaluation are dropped by the next insert or remove."""
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
        else:
            t = rng.choice(list(model.get(g, ())) or triples)
            store.remove(g, t)
            model.get(g, {}).pop(t, None)
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
    store.remove(G2, c)
    assert store.snapshot([G2]).triples == []
    assert one.triples == [a, b]
    assert both.triples == [a, b, c]
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
    join = Plan([TriplePattern(record, type_, record_class), pattern])
    got, _ = join.steps[1].candidates(index, (records[7],))
    assert got == [
        Triple(records[7], type_, record_class),
        Triple(records[7], hr, integer(67)),
    ]
    alone, _ = Plan([pattern]).steps[0].candidates(index, ())
    assert len(alone) == 50
