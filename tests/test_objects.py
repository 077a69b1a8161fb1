import random

import pytest

from semhub import vocab
from semhub.errors import (
    DuplicateId,
    MissingDescription,
    StaleSequence,
    UnknownSource,
)
from semhub.objects import (
    CompositeVO,
    CVO_CLASS,
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
    decimal,
    integer,
    string,
)
from records import check_record

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


def test_observation_is_a_slotted_frozen_record():
    check_record(
        Observation, (Iri("urn:t:vo:hr"), 1000, decimal("61.5"), 4),
        "Observation(source=Iri(value='urn:t:vo:hr'), timestamp=1000, "
        "value=Literal(lexical='61.5', datatype='decimal'), sequence=4)",
        ("sequence", 5),
    )


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
    assert store.contains(g, Triple(vo.id, MOTION, integer(7)))


@pytest.mark.parametrize("seed", range(8))
def test_retention_matches_window_model(seed):
    """Random streams with repeated values and timestamps, equal timestamps,
    and stale or regressing observations: after every ingest the data graph
    holds exactly the triples of the last `retention` accepted observations."""
    rng = random.Random(seed)
    retention = rng.randint(1, 5)
    registry, store = make_registry(retention=retention)
    vo = make_vo(registry)
    g = data_graph_of(vo.id)
    accepted: list[Observation] = []
    seq, ts = 0, 1000
    for _ in range(200):
        candidate = Observation(
            vo.id,
            ts + rng.randint(-1, 2),
            integer(rng.randint(0, 3)),
            seq + rng.randint(-1, 2),
        )
        graph_before = set(store.triples(g))
        counts_before = registry.counts()
        if accepted and (candidate.sequence <= seq or candidate.timestamp < ts):
            with pytest.raises(StaleSequence):
                registry.ingest(candidate)
            assert set(store.triples(g)) == graph_before
            counts_before["stale_dropped"] += 1
            assert registry.counts() == counts_before
            continue
        registry.ingest(candidate)
        accepted.append(candidate)
        seq, ts = candidate.sequence, candidate.timestamp
        window = accepted[-retention:]
        assert set(store.triples(g)) == {
            Triple(vo.id, MOTION, o.value) for o in window
        } | {Triple(vo.id, vocab.OBSERVED_AT, integer(o.timestamp)) for o in window}
        assert registry.buffered(vo.id) == window
        assert registry.counts()["evicted"] == max(0, len(accepted) - retention)


def test_readings_select_one_users_property_and_merge_in_order():
    registry, _ = make_registry()
    alice, bob = vocab.user_iri("alice"), vocab.user_iri("bob")

    def monitoring(name, prop, user):
        vo = VirtualObject(
            Iri(f"urn:t:vo:{name}"), "smart-home", "sensor",
            Iri(f"urn:t:vo:{name}#desc"), prop, "count",
        )
        registry.describe_vo(vo, extra=(Triple(vo.id, vocab.MONITORS, user),))
        registry.register_vo(vo)
        return vo

    # registered out of source order, so the merge order is the sort's own
    second = monitoring("m2", MOTION, alice)
    first = monitoring("m1", MOTION, alice)
    lux = monitoring("lux", vocab.LUMINOSITY, alice)
    other = monitoring("bob", MOTION, bob)
    unmonitored = make_vo(registry, "loose")
    for vo in (first, lux, other, unmonitored):
        for seq, ts in enumerate((100, 200, 300, 400), start=1):
            registry.ingest(obs(vo, seq, seq, ts))
    for seq, ts in enumerate((200, 200, 300, 301), start=1):  # two readings at 200
        registry.ingest(obs(second, seq, seq, ts))

    got = registry.readings(alice, MOTION, 200, 300)
    assert [(o.timestamp, o.source, o.sequence) for o in got] == [
        (200, first.id, 2),
        (200, second.id, 1),
        (200, second.id, 2),
        (300, first.id, 3),
        (300, second.id, 3),
    ]
    assert [o.source for o in registry.readings(alice, vocab.LUMINOSITY, 0, 10**6)] == [lux.id] * 4
    assert [o.timestamp for o in registry.readings(bob, MOTION, 100, 100)] == [100]
    assert registry.readings(bob, vocab.LUMINOSITY, 0, 10**6) == []


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
        action=PublishMessage("motion/{?s}", {"count": "{?v}"}),
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


def test_two_bindings_fire_once_each():
    registry, store = make_registry()
    vo1 = make_vo(registry, "m1")
    vo2 = make_vo(registry, "m2")
    registry.ingest(obs(vo1, 1, 15))
    registry.ingest(obs(vo2, 1, 25))
    cvo = make_cvo(registry, store, [vo1, vo2], [motion_rule(10)])
    sent = []
    fired = registry.evaluate_cvo_rules(cvo.id, publisher=lambda t, p: sent.append((t, p)))
    assert len(fired) == 1
    assert len(fired[0].bindings) == 2
    assert fired[0].action_outcome == "published 2"
    assert sent == [
        (f"motion/{vo1.id.value}", {"count": "15"}),
        (f"motion/{vo2.id.value}", {"count": "25"}),
    ]


def test_firing_count_matches_standalone_query():
    registry, store = make_registry()
    vo1 = make_vo(registry, "m1")
    vo2 = make_vo(registry, "m2")
    for i, v in enumerate([15, 25, 3], start=1):
        registry.ingest(obs(vo1, i, v, ts=2000 + i))
    registry.ingest(obs(vo2, 1, 40))
    rule = motion_rule(10)
    cvo = make_cvo(registry, store, [vo1, vo2], [rule])
    fired = registry.evaluate_cvo_rules(cvo.id, publisher=lambda t, p: None)
    q = Query(
        select=list(rule.condition_variables()),
        where=list(rule.condition),
        filters=list(rule.filters),
        graph_scope=[data_graph_of(vo1.id), data_graph_of(vo2.id)],
    )
    assert len(fired[0].bindings) == len(store.evaluate(q))


def test_rule_with_empty_condition_fires_once():
    registry, store = make_registry()
    vo = make_vo(registry)
    always = Rule("always", (), (), PublishMessage("state/idle", {"user": "u"}))
    cvo = make_cvo(registry, store, [vo], [always])
    sent = []
    [fired] = registry.evaluate_cvo_rules(cvo.id, publisher=lambda t, p: sent.append((t, p)))
    assert fired.bindings == ({},)
    assert fired.action_outcome == "published 1"
    assert sent == [("state/idle", {"user": "u"})]


def test_bindings_in_serialized_order_instantiate_templates():
    registry, store = make_registry()
    vo1 = make_vo(registry, "m1")
    vo2 = make_vo(registry, "m2")
    registry.ingest(obs(vo1, 1, 25))
    registry.ingest(obs(vo1, 2, 15))
    registry.ingest(obs(vo2, 1, 40))
    s, v = Variable("s"), Variable("v")
    rule = Rule("saw", (TriplePattern(s, MOTION, v),), (), PublishMessage("saw/{?s}", {"v": "{?v}"}))
    cvo = make_cvo(registry, store, [vo1, vo2], [rule])
    sent = []
    [fired] = registry.evaluate_cvo_rules(cvo.id, publisher=lambda t, p: sent.append((t, p)))
    rows = [(b[s], b[v]) for b in fired.bindings]
    assert rows == [(vo1.id, integer(15)), (vo1.id, integer(25)), (vo2.id, integer(40))]
    assert fired.action_outcome == "published 3"
    assert sent == [(f"saw/{row[0].value}", {"v": row[1].lexical}) for row in rows]


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
    cvo = make_cvo(registry, store, [vo], [publish, motion_rule(10, "later")])
    sent = []

    def publisher(topic, payload):
        if topic == "alerts/home":
            raise RuntimeError("topic closed")
        sent.append((topic, payload))

    fired = registry.evaluate_cvo_rules(cvo.id, publisher=publisher)
    assert [f.rule_id for f in fired] == ["pub", "later"]
    assert not fired[0].ok and "topic closed" in fired[0].action_outcome
    assert fired[1].ok and sent == [(f"motion/{vo.id.value}", {"count": "50"})]
    unattached = registry.evaluate_cvo_rules(cvo.id)  # no bus attached
    assert [f.rule_id for f in unattached] == ["pub", "later"]
    assert all(not f.ok and "bus" in f.action_outcome for f in unattached)


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


def test_an_iri_in_an_action_is_a_term_not_a_template():
    registry, store = make_registry()
    vo = make_vo(registry)
    registry.ingest(obs(vo, 1, 42))
    s, v = Variable("s"), Variable("v")
    odd = Iri("urn:t:{?ghost}")  # placeholder text, but an IRI, so never substituted
    publish = Rule("p", (TriplePattern(s, MOTION, v),), (), PublishMessage("t", {"iri": odd}))
    cvo = make_cvo(registry, store, [vo], [publish])
    sent = []
    registry.evaluate_cvo_rules(cvo.id, publisher=lambda t, p: sent.append(p))
    assert sent == [{"iri": odd}] and type(sent[0]["iri"]) is Iri


def test_rule_action_variables_must_be_bound():
    from semhub.errors import ActionFailure

    s = Variable("s")
    with pytest.raises(ActionFailure):
        Rule(
            id="bad",
            condition=(TriplePattern(s, MOTION, integer(1)),),
            filters=(),
            action=PublishMessage("t/{?ghost}", {}),
        )
    with pytest.raises(ActionFailure):
        Rule(
            id="bad2",
            condition=(TriplePattern(s, MOTION, integer(1)),),
            filters=(),
            action=PublishMessage("t", {"x": "{?ghost}"}),
        )
