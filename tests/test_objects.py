import pytest

from semhub import vocab
from semhub.errors import (
    DuplicateId,
    MissingDescription,
    StaleSequence,
    UnknownSource,
)
from semhub.objects import (
    AssertTriples,
    CompositeVO,
    CVO_CLASS,
    InvokeService,
    Observation,
    ObjectRegistry,
    PublishMessage,
    Rule,
    UserModel,
    VO_CLASS,
    VirtualObject,
    data_graph_of,
)
from semhub.semantic import (
    Filter,
    GraphStore,
    Iri,
    Literal,
    Query,
    Triple,
    TriplePattern,
    Variable,
    integer,
    string,
)

MOTION = vocab.MOTION_COUNT


def make_registry(retention=100):
    store = GraphStore()
    return ObjectRegistry(store, retention=retention), store


def make_vo(registry, name="vo1", domain="smart-home", prop=MOTION):
    vo = VirtualObject(
        id=Iri(f"urn:t:vo:{name}"),
        domain=domain,
        kind="sensor",
        description_graph=Iri(f"urn:t:vo:{name}#desc"),
        observed_property=prop,
        unit="count",
    )
    registry.describe_vo(vo)
    registry.register_vo(vo)
    return vo


def obs(vo, seq, value, ts=None):
    return Observation(vo.id, ts if ts is not None else 1000 + seq, integer(value), seq)


# --- registration -----------------------------------------------------------

def test_register_and_lookup():
    registry, _ = make_registry()
    vo = make_vo(registry)
    assert registry.vo(vo.id) == vo


def test_register_duplicate_id():
    registry, _ = make_registry()
    vo = make_vo(registry)
    with pytest.raises(DuplicateId):
        registry.register_vo(vo)


def test_register_missing_description():
    registry, store = make_registry()
    vo = VirtualObject(
        id=Iri("urn:t:vo:bare"),
        domain="smart-home",
        kind="sensor",
        description_graph=Iri("urn:t:vo:bare#desc"),
        observed_property=MOTION,
        unit="count",
    )
    store.insert(vo.description_graph, Triple(vo.id, Iri("urn:t:note"), string("x")))
    with pytest.raises(MissingDescription):
        registry.register_vo(vo)


def test_description_graph_queryable():
    registry, store = make_registry()
    vo = make_vo(registry)
    q = Query(
        select=[Variable("c")],
        where=[TriplePattern(vo.id, vocab.TYPE, Variable("c"))],
        graph_scope=[vo.description_graph],
    )
    assert store.evaluate(q).rows == ((VO_CLASS,),)


def test_cvo_requires_known_members():
    registry, store = make_registry()
    cvo_id = Iri("urn:t:cvo:x")
    g = Iri("urn:t:cvo:x#desc")
    store.insert(g, Triple(cvo_id, vocab.TYPE, CVO_CLASS))
    with pytest.raises(UnknownSource):
        registry.register_cvo(
            CompositeVO(cvo_id, (Iri("urn:t:vo:ghost"),), (), g)
        )


def test_cvo_requires_members():
    with pytest.raises(MissingDescription):
        CompositeVO(Iri("urn:t:cvo:x"), (), (), Iri("urn:t:g"))


def test_user_model_access_level_bounds():
    registry, store = make_registry()
    g = Iri("urn:t:user:alice#profile")
    store.insert(g, Triple(vocab.user_iri("alice"), vocab.TYPE, vocab.class_iri("User")))
    registry.register_user(UserModel(vocab.user_iri("alice"), g, {}, 2))
    with pytest.raises(MissingDescription):
        UserModel(vocab.user_iri("bob"), g, {}, 4)
    with pytest.raises(MissingDescription):
        registry.register_user(
            UserModel(vocab.user_iri("carol"), Iri("urn:t:nowhere"), {}, 1)
        )


# --- ingestion --------------------------------------------------------------

def test_first_observation_two_triples():
    registry, store = make_registry()
    vo = make_vo(registry)
    assert registry.ingest(obs(vo, 1, 5)) == 2
    g = data_graph_of(vo.id)
    assert store.graph_size(g) == 2
    triples = set(store.triples(g))
    assert Triple(vo.id, MOTION, integer(5)) in triples
    assert Triple(vo.id, vocab.OBSERVED_AT, integer(1001)) in triples


def test_stale_sequence_rejected():
    registry, _ = make_registry()
    vo = make_vo(registry)
    registry.ingest(obs(vo, 2, 5))
    with pytest.raises(StaleSequence):
        registry.ingest(obs(vo, 2, 6))
    with pytest.raises(StaleSequence):
        registry.ingest(obs(vo, 1, 6))
    assert registry.last_sequence(vo.id) == 2


def test_timestamp_regression_rejected():
    registry, _ = make_registry()
    vo = make_vo(registry)
    registry.ingest(obs(vo, 1, 5, ts=5000))
    with pytest.raises(StaleSequence):
        registry.ingest(obs(vo, 2, 6, ts=4000))


def test_unknown_source():
    registry, _ = make_registry()
    with pytest.raises(UnknownSource):
        registry.ingest(Observation(Iri("urn:t:vo:ghost"), 1, integer(1), 1))


def test_ten_observations_twenty_triples():
    registry, store = make_registry()
    vo = make_vo(registry)
    for i in range(1, 11):
        registry.ingest(obs(vo, i, 100 + i))
    assert store.graph_size(data_graph_of(vo.id)) == 20


def test_sequence_monotone_after_interleaving():
    registry, _ = make_registry()
    vo = make_vo(registry)
    accepted = []
    for seq in (1, 3, 2, 5, 5, 4, 9):
        try:
            registry.ingest(obs(vo, seq, seq))
            accepted.append(seq)
        except StaleSequence:
            pass
    assert registry.last_sequence(vo.id) == max(accepted) == 9


def test_retention_window():
    registry, store = make_registry(retention=5)
    vo = make_vo(registry)
    for i in range(1, 9):  # 8 observations, window 5 → 3 evicted
        registry.ingest(obs(vo, i, 100 + i))
    g = data_graph_of(vo.id)
    assert len(registry.buffered(vo.id)) == 5
    assert store.graph_size(g) == 10
    values = {
        t.object for t in store.triples(g) if t.predicate == MOTION
    }
    assert values == {integer(100 + i) for i in range(4, 9)}
    assert registry.counts()["evicted"] == 3


def test_retention_keeps_shared_values():
    registry, store = make_registry(retention=3)
    vo = make_vo(registry)
    # same value 7 appears early and late; eviction of the early one must
    # not delete the still-buffered late occurrence's triple
    for i, value in enumerate([7, 1, 2, 7, 3], start=1):
        registry.ingest(obs(vo, i, value))
    g = data_graph_of(vo.id)
    assert Triple(vo.id, MOTION, integer(7)) in store.snapshot([g])


# --- rule evaluation --------------------------------------------------------

def make_cvo(registry, store, members, rules, name="cvo1"):
    cvo_id = Iri(f"urn:t:cvo:{name}")
    g = Iri(f"urn:t:cvo:{name}#desc")
    store.insert(g, Triple(cvo_id, vocab.TYPE, CVO_CLASS))
    cvo = CompositeVO(cvo_id, tuple(m.id for m in members), tuple(rules), g)
    registry.register_cvo(cvo)
    return cvo


def motion_rule(threshold=10, rule_id="r1"):
    v = Variable("v")
    s = Variable("s")
    return Rule(
        id=rule_id,
        condition=(TriplePattern(s, MOTION, v),),
        filters=(Filter(v, ">", integer(threshold)),),
        action=AssertTriples(
            ((vocab.user_iri("u"), Iri("urn:t:inState"), Iri("urn:t:state:active")),)
        ),
    )


def test_no_rules_empty_fired():
    registry, store = make_registry()
    vo = make_vo(registry)
    cvo = make_cvo(registry, store, [vo], [])
    assert registry.evaluate_cvo_rules(cvo.id) == []


def test_rule_below_threshold_does_not_fire():
    registry, store = make_registry()
    vo = make_vo(registry)
    registry.ingest(obs(vo, 1, 3))
    cvo = make_cvo(registry, store, [vo], [motion_rule(10)])
    assert registry.evaluate_cvo_rules(cvo.id) == []


def test_two_bindings_fire_once_each_one_distinct_triple():
    registry, store = make_registry()
    vo1 = make_vo(registry, "m1")
    vo2 = make_vo(registry, "m2")
    registry.ingest(obs(vo1, 1, 15))
    registry.ingest(obs(vo2, 1, 25))
    cvo = make_cvo(registry, store, [vo1, vo2], [motion_rule(10)])
    fired = registry.evaluate_cvo_rules(cvo.id)
    assert len(fired) == 1
    assert len(fired[0].bindings) == 2
    asserted = [
        t for t in store.triples(cvo.description_graph)
        if t.predicate == Iri("urn:t:inState")
    ]
    assert len(asserted) == 1


def test_firing_count_matches_standalone_query():
    registry, store = make_registry()
    vo1 = make_vo(registry, "m1")
    vo2 = make_vo(registry, "m2")
    for i, v in enumerate([15, 25, 3], start=1):
        registry.ingest(obs(vo1, i, v, ts=2000 + i))
    registry.ingest(obs(vo2, 1, 40))
    rule = motion_rule(10)
    cvo = make_cvo(registry, store, [vo1, vo2], [rule])
    fired = registry.evaluate_cvo_rules(cvo.id)
    q = Query(
        select=list(rule.condition_variables()),
        where=list(rule.condition),
        filters=list(rule.filters),
        graph_scope=[data_graph_of(vo1.id), data_graph_of(vo2.id)],
    )
    assert len(fired[0].bindings) == len(store.evaluate(q))


def test_assert_rules_idempotent_on_store():
    registry, store = make_registry()
    vo = make_vo(registry)
    registry.ingest(obs(vo, 1, 50))
    cvo = make_cvo(registry, store, [vo], [motion_rule(10)])
    registry.evaluate_cvo_rules(cvo.id)
    before = sorted(store.triples(cvo.description_graph), key=str)
    registry.evaluate_cvo_rules(cvo.id)
    assert sorted(store.triples(cvo.description_graph), key=str) == before


def test_rules_run_in_order_and_failures_do_not_block():
    registry, store = make_registry()
    vo = make_vo(registry)
    registry.ingest(obs(vo, 1, 50))
    v, s = Variable("v"), Variable("s")
    publish = Rule(
        id="pub",
        condition=(TriplePattern(s, MOTION, v),),
        filters=(),
        action=PublishMessage("alerts/home", {"value": "{?v}"}),
    )
    cvo = make_cvo(registry, store, [vo], [publish, motion_rule(10, "assert")])
    fired = registry.evaluate_cvo_rules(cvo.id)  # no bus attached
    assert [f.rule_id for f in fired] == ["pub", "assert"]
    assert not fired[0].ok and "bus" in fired[0].action_outcome
    assert fired[1].ok


def test_publish_payload_substitution():
    registry, store = make_registry()
    vo = make_vo(registry)
    registry.ingest(obs(vo, 1, 42))
    v, s = Variable("v"), Variable("s")
    rule = Rule(
        id="pub",
        condition=(TriplePattern(s, MOTION, v),),
        filters=(),
        action=PublishMessage("alerts/{?s}", {"motion": "{?v}", "unit": "count"}),
    )
    cvo = make_cvo(registry, store, [vo], [rule])
    sent = []
    registry.evaluate_cvo_rules(cvo.id, publisher=lambda t, p: sent.append((t, p)))
    assert sent == [(f"alerts/{vo.id.value}", {"motion": "42", "unit": "count"})]


def test_invoke_service_action():
    registry, store = make_registry()
    vo = make_vo(registry)
    registry.ingest(obs(vo, 1, 42))
    s, v = Variable("s"), Variable("v")
    rule = Rule(
        id="inv",
        condition=(TriplePattern(s, MOTION, v),),
        filters=(),
        action=InvokeService("analytics", {"reading": "{?v}"}),
    )
    cvo = make_cvo(registry, store, [vo], [rule])
    calls = []
    registry.evaluate_cvo_rules(cvo.id, invoker=lambda k, p: calls.append((k, p)))
    assert calls == [("analytics", {"reading": "42"})]


def test_rule_action_variables_must_be_bound():
    from semhub.errors import ActionFailure

    s = Variable("s")
    with pytest.raises(ActionFailure):
        Rule(
            id="bad",
            condition=(TriplePattern(s, MOTION, integer(1)),),
            filters=(),
            action=AssertTriples(((s, Iri("urn:t:p"), Variable("ghost")),)),
        )
    with pytest.raises(ActionFailure):
        Rule(
            id="bad2",
            condition=(TriplePattern(s, MOTION, integer(1)),),
            filters=(),
            action=PublishMessage("t", {"x": "{?ghost}"}),
        )
