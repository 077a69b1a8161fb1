import random

import pytest

from semhub import reasoning, vocab
from semhub.errors import AmbiguousActivity, RuleError, UnknownConcept
from semhub.interop import OntologyContext, PredicateSpec
from semhub.objects import ObjectRegistry, Observation, VirtualObject
from semhub.reasoning import (
    InferenceRule,
    ReasoningService,
    RuleProgram,
    ServiceRequirement,
    generate_query,
    infer_fixpoint,
    load_default_programs,
)
from semhub.semantic import (
    Filter,
    GraphStore,
    Iri,
    Literal,
    Triple,
    TriplePattern,
    Variable,
    decimal,
    integer,
)
from oracles import naive_fixpoint, random_rule_program

IN = Iri("urn:t:graph:in")
OUT = Iri("urn:t:graph:out")
P = Iri("urn:t:p")
BASE_TS = 1_704_067_200_000  # 2024-01-01T00:00:00Z


def chain_store():
    store = GraphStore()
    a, b, c, d = (Iri(f"urn:t:{x}") for x in "abcd")
    for s, o in ((a, b), (b, c), (c, d)):
        store.insert(IN, Triple(s, P, o))
    return store, (a, b, c, d)


def transitivity_rule():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return InferenceRule(
        "trans",
        (TriplePattern(x, P, y), TriplePattern(y, P, z)),
        (),
        ((x, P, z),),
    )


# --- engine -----------------------------------------------------------------

def test_empty_program_one_iteration():
    store, _ = chain_store()
    prog = RuleProgram("empty", (), frozenset([IN]), OUT)
    result = infer_fixpoint(store, prog)
    assert result.derived == []
    assert result.iterations == 1


def test_transitivity_chain():
    store, (a, b, c, d) = chain_store()
    prog = RuleProgram("t", (transitivity_rule(),), frozenset([IN]), OUT)
    result = infer_fixpoint(store, prog)
    assert set(result.derived) == {
        Triple(a, P, c),
        Triple(a, P, d),
        Triple(b, P, d),
    }
    assert result.iterations == 3
    assert result.fired_per_rule["trans"] == 3
    assert set(store.triples(OUT)) == set(result.derived)


def test_unmatched_rule_fires_zero():
    store, _ = chain_store()
    x = Variable("x")
    dead = InferenceRule(
        "dead",
        (TriplePattern(x, Iri("urn:t:absent"), x),),
        (),
        ((x, P, x),),
    )
    prog = RuleProgram("p", (dead,), frozenset([IN]), OUT)
    result = infer_fixpoint(store, prog)
    assert result.fired_per_rule == {"dead": 0}


def test_head_variable_must_occur_in_body():
    x = Variable("x")
    with pytest.raises(RuleError):
        InferenceRule("bad", (TriplePattern(x, P, x),), (), ((Variable("y"), P, x),))


def test_filter_variable_must_occur_in_body():
    x = Variable("x")
    with pytest.raises(RuleError):
        InferenceRule(
            "bad",
            (TriplePattern(x, P, x),),
            (Filter(Variable("y"), "=", integer(1)),),
            ((x, P, x),),
        )


def test_output_graph_must_not_be_input():
    with pytest.raises(RuleError):
        RuleProgram("bad", (), frozenset([IN, OUT]), OUT)


def test_invalid_head_instantiation_raises():
    store = GraphStore()
    store.insert(IN, Triple(Iri("urn:t:s"), P, integer(5)))
    x, v = Variable("x"), Variable("v")
    # v binds to a literal but is used in subject position of the head
    bad = InferenceRule("bad", (TriplePattern(x, P, v),), (), ((v, P, x),))
    prog = RuleProgram("p", (bad,), frozenset([IN]), OUT)
    with pytest.raises(RuleError):
        infer_fixpoint(store, prog)


def test_input_graphs_untouched():
    store, _ = chain_store()
    before = sorted(store.triples(IN), key=str)
    prog = RuleProgram("t", (transitivity_rule(),), frozenset([IN]), OUT)
    result = infer_fixpoint(store, prog)
    assert sorted(store.triples(IN), key=str) == before
    assert not set(result.derived) & set(before)


def test_monotone_under_input_growth():
    store, (a, b, c, d) = chain_store()
    prog = RuleProgram("t", (transitivity_rule(),), frozenset([IN]), OUT)
    small = set(infer_fixpoint(store, prog).derived)
    bigger = GraphStore()
    for t in store.triples(IN):
        bigger.insert(IN, t)
    bigger.insert(IN, Triple(d, P, Iri("urn:t:e")))
    grown = set(infer_fixpoint(bigger, prog).derived)
    assert small <= grown


@pytest.mark.parametrize("seed", range(40))
def test_semi_naive_matches_naive_oracle(seed):
    rng = random.Random(seed)
    facts, rules = random_rule_program(rng)
    store = GraphStore()
    store.insert_all(IN, facts)
    prog = RuleProgram(f"r{seed}", tuple(rules), frozenset([IN]), OUT)
    result = infer_fixpoint(store, prog)
    expected = naive_fixpoint(facts, rules) - set(facts)
    assert set(result.derived) == expected, f"seed={seed}"
    assert set(store.triples(OUT)) == expected


# --- reasoners --------------------------------------------------------------

USER = vocab.user_iri("anna")


def make_world():
    store = GraphStore()
    registry = ObjectRegistry(store)
    service = ReasoningService(registry, load_default_programs())
    return registry, service


def add_vo(registry, name, prop, domain="smart-home"):
    vo = VirtualObject(
        id=Iri(f"urn:t:vo:{name}"),
        domain=domain,
        kind="sensor",
        description_graph=Iri(f"urn:t:vo:{name}#desc"),
        observed_property=prop,
        unit="",
    )
    registry.describe_vo(vo, extra=[Triple(vo.id, vocab.MONITORS, USER)])
    registry.register_vo(vo)
    return vo


def feed(registry, vo, values, t0=BASE_TS, step_ms=60_000, datatype="integer"):
    for i, v in enumerate(values):
        registry.ingest(
            Observation(vo.id, t0 + i * step_ms, Literal(str(v), datatype), i + 1)
        )


def test_bundled_programs_pass_exclusion_validation():
    make_world()  # construction runs the validation


def test_activity_sleeping_at_night():
    registry, service = make_world()
    motion = add_vo(registry, "motion", vocab.MOTION_COUNT)
    lux = add_vo(registry, "lux", vocab.LUMINOSITY)
    end = BASE_TS + 2 * 3_600_000  # 02:00 UTC
    feed(registry, motion, [0] * 30, t0=end - 29 * 60_000)
    feed(registry, lux, [5] * 30, t0=end - 29 * 60_000, datatype="decimal")
    derived = service.run_activity(USER, (end - 3_600_000, end))
    assert derived == [
        Triple(USER, vocab.CURRENT_ACTIVITY, vocab.class_iri("Sleeping"))
    ]


def test_activity_exercising_on_high_motion():
    registry, service = make_world()
    motion = add_vo(registry, "motion", vocab.MOTION_COUNT)
    end = BASE_TS + 17 * 3_600_000
    feed(registry, motion, [35, 40, 28], t0=end - 2 * 60_000)
    derived = service.run_activity(USER, (end - 3_600_000, end))
    assert derived == [
        Triple(USER, vocab.CURRENT_ACTIVITY, vocab.class_iri("Exercising"))
    ]


def test_activity_empty_window():
    registry, service = make_world()
    add_vo(registry, "motion", vocab.MOTION_COUNT)
    assert service.run_activity(USER, (BASE_TS, BASE_TS + 60_000)) == []


def test_activity_rerun_replaces_previous_fact():
    registry, service = make_world()
    motion = add_vo(registry, "motion", vocab.MOTION_COUNT)
    end = BASE_TS + 10 * 3_600_000
    feed(registry, motion, [5] * 5, t0=end - 4 * 60_000)
    service.run_activity(USER, (end - 3_600_000, end))
    end2 = end + 30 * 60_000
    feed2 = [30] * 5
    for i, v in enumerate(feed2):
        registry.ingest(
            Observation(motion.id, end2 - (4 - i) * 60_000, integer(v), 100 + i)
        )
    service.run_activity(USER, (end2 - 3_600_000, end2))
    out = service.store.triples(service.output_graph("activity"))
    facts = [t for t in out if t.subject == USER and t.predicate == vocab.CURRENT_ACTIVITY]
    assert facts == [Triple(USER, vocab.CURRENT_ACTIVITY, vocab.class_iri("Exercising"))]


def test_location_latest_beacon_wins():
    registry, service = make_world()
    beacon = add_vo(registry, "beacon", vocab.ZONE_READING, domain="smart-office")
    registry.ingest(Observation(beacon.id, BASE_TS, Literal("Kitchen"), 1))
    registry.ingest(Observation(beacon.id, BASE_TS + 60_000, Literal("Office"), 2))
    derived = service.run_location(USER, (BASE_TS, BASE_TS + 3_600_000))
    assert derived == [Triple(USER, vocab.IN_ZONE, vocab.zone_iri("Office"))]


def test_location_tie_breaks_lexicographically():
    registry, service = make_world()
    b1 = add_vo(registry, "b1", vocab.ZONE_READING, domain="smart-office")
    b2 = add_vo(registry, "b2", vocab.ZONE_READING, domain="smart-office")
    registry.ingest(Observation(b1.id, BASE_TS, Literal("Lobby"), 1))
    registry.ingest(Observation(b2.id, BASE_TS, Literal("Atrium"), 1))
    derived = service.run_location(USER, (BASE_TS, BASE_TS + 60_000))
    assert derived == [Triple(USER, vocab.IN_ZONE, vocab.zone_iri("Atrium"))]


def test_location_no_beacons_empty():
    registry, service = make_world()
    add_vo(registry, "beacon", vocab.ZONE_READING, domain="smart-office")
    assert service.run_location(USER, (BASE_TS, BASE_TS + 60_000)) == []


def test_physio_normal():
    registry, service = make_world()
    hr = add_vo(registry, "hr", vocab.HEART_RATE, domain="medical-facility")
    sys = add_vo(registry, "sys", vocab.SYSTOLIC, domain="medical-facility")
    end = BASE_TS + 10 * 60_000
    feed(registry, hr, [72, 72, 72], t0=end - 2 * 60_000)
    feed(registry, sys, [118, 118], t0=end - 60_000)
    derived = service.run_physio(USER, (end - 3_600_000, end))
    assert derived == [Triple(USER, vocab.PHYSIO_STATUS, vocab.class_iri("Normal"))]


def test_physio_hr_130_elevated():
    registry, service = make_world()
    hr = add_vo(registry, "hr", vocab.HEART_RATE, domain="medical-facility")
    sys = add_vo(registry, "sys", vocab.SYSTOLIC, domain="medical-facility")
    end = BASE_TS + 10 * 60_000
    feed(registry, hr, [130], t0=end)
    feed(registry, sys, [118], t0=end)
    derived = service.run_physio(USER, (end - 3_600_000, end))
    assert derived == [Triple(USER, vocab.PHYSIO_STATUS, vocab.class_iri("Elevated"))]


def test_physio_critical_high_hr():
    registry, service = make_world()
    hr = add_vo(registry, "hr", vocab.HEART_RATE, domain="medical-facility")
    end = BASE_TS + 10 * 60_000
    feed(registry, hr, [150, 160], t0=end - 60_000)
    derived = service.run_physio(USER, (end - 3_600_000, end))
    assert derived == [Triple(USER, vocab.PHYSIO_STATUS, vocab.class_iri("Critical"))]


def test_physio_no_observations_empty():
    registry, service = make_world()
    assert service.run_physio(USER, (BASE_TS, BASE_TS + 60_000)) == []


def overlapping_activity_rules():
    u, m = Variable("u"), Variable("m")
    shared_body = (TriplePattern(u, vocab.MAX_MOTION_30M, m),)
    shared_filters = (Filter(m, ">=", integer(0)),)
    return [
        InferenceRule("o1", shared_body, shared_filters,
                      ((u, vocab.CURRENT_ACTIVITY, vocab.class_iri("Resting")),)),
        InferenceRule("o2", shared_body, shared_filters,
                      ((u, vocab.CURRENT_ACTIVITY, vocab.class_iri("Active")),)),
    ]


def test_overlapping_program_rejected_at_load():
    store = GraphStore()
    registry = ObjectRegistry(store)
    with pytest.raises(RuleError):
        ReasoningService(registry, {"activity": overlapping_activity_rules()})


def one_predicate_rule(rule_id, predicate, filters, head_predicate, head_class):
    u, x = Variable("u"), Variable("x")
    return InferenceRule(
        rule_id,
        (TriplePattern(u, predicate, x),),
        tuple(Filter(x, op, value) for op, value in filters),
        ((u, head_predicate, vocab.class_iri(head_class)),),
    )


def test_physio_overlap_between_decimal_constants_rejected_at_load():
    # overlap only on [60.5, 61]: found at the probes 60.5, 60.75 and 61
    hr = vocab.MEAN_HEART_RATE_15M
    rules = [
        one_predicate_rule("normal", hr, [(">=", decimal("60")), ("<=", decimal("61"))],
                           vocab.PHYSIO_STATUS, "Normal"),
        one_predicate_rule("elevated", hr, [(">=", decimal("60.5")), ("<=", decimal("70"))],
                           vocab.PHYSIO_STATUS, "Elevated"),
    ]
    with pytest.raises(RuleError, match="physio-status"):
        ReasoningService(ObjectRegistry(GraphStore()), {"physio-status": rules})


def test_activity_overlap_at_integer_midpoint_rejected_at_load():
    # 5 < h < 8 holds at 6 and 7 only; the integer midpoint 6 is probed
    filters = [(">", integer(5)), ("<", integer(8))]
    rules = [
        one_predicate_rule(f"r-{cls}", vocab.HOUR_OF_DAY, filters, vocab.CURRENT_ACTIVITY, cls)
        for cls in ("Resting", "Active")
    ]
    with pytest.raises(RuleError, match='hourOfDay="6"'):
        ReasoningService(ObjectRegistry(GraphStore()), {"activity": rules})


def test_location_overlap_rejected_at_load():
    u, z = Variable("u"), Variable("z")
    body = (TriplePattern(u, vocab.LATEST_BEACON_ZONE, z),)
    rules = [
        InferenceRule("from-beacon", body, (), ((u, vocab.IN_ZONE, z),)),
        InferenceRule("always-kitchen", body, (), ((u, vocab.IN_ZONE, vocab.zone_iri("Kitchen")),)),
    ]
    with pytest.raises(RuleError, match="location"):
        ReasoningService(ObjectRegistry(GraphStore()), {"location": rules})


def test_bundled_programs_each_checked_and_load(monkeypatch):
    checked = []
    validate = reasoning._validate_exclusive

    def spy(name, rules, fact_predicate):
        checked.append((name, fact_predicate))
        validate(name, rules, fact_predicate)

    monkeypatch.setattr(reasoning, "_validate_exclusive", spy)
    ReasoningService(ObjectRegistry(GraphStore()), load_default_programs())
    assert sorted(checked) == sorted(ReasoningService.FACT_PREDICATE.items())


def test_ambiguous_activity_surfaces_at_runtime(monkeypatch):
    # skip the load-time check so the overlap reaches a run
    monkeypatch.setattr(reasoning, "_validate_exclusive", lambda *args: None)
    store = GraphStore()
    registry = ObjectRegistry(store)
    service = ReasoningService(registry, {"activity": overlapping_activity_rules()})
    motion = add_vo(registry, "motion", vocab.MOTION_COUNT)
    feed(registry, motion, [3], t0=BASE_TS)
    with pytest.raises(AmbiguousActivity):
        service.run_activity(USER, (BASE_TS - 60_000, BASE_TS + 60_000))
    out = service.store.triples(service.output_graph("activity"))
    assert not [t for t in out if t.predicate == vocab.CURRENT_ACTIVITY]
    assert not [g for g in store.graphs() if "scratch:" in g.value]


# --- query generation -------------------------------------------------------

def patient_ctx():
    patient = vocab.class_iri("Patient")
    return OntologyContext(
        name="medical",
        classes=frozenset([patient]),
        predicates={
            vocab.HEART_RATE: PredicateSpec(patient, "integer", functional=True),
            vocab.SYSTOLIC: PredicateSpec(patient, "integer", functional=True),
        },
    )


def test_generate_query_single_property():
    ctx = patient_ctx()
    req = ServiceRequirement(vocab.class_iri("Patient"), (vocab.HEART_RATE,))
    q = generate_query(req, ctx)
    assert len(q.where) == 2
    assert q.select == (Variable("s"), Variable("v0"))
    assert q.where[0] == TriplePattern(Variable("s"), vocab.TYPE, vocab.class_iri("Patient"))
    assert q.where[1] == TriplePattern(Variable("s"), vocab.HEART_RATE, Variable("v0"))


def test_generate_query_empty_properties():
    q = generate_query(ServiceRequirement(vocab.class_iri("Patient"), ()), patient_ctx())
    assert len(q.where) == 1
    assert q.select == (Variable("s"),)


def test_generate_query_constraints_become_filters():
    req = ServiceRequirement(
        vocab.class_iri("Patient"),
        (vocab.HEART_RATE,),
        ((vocab.HEART_RATE, ">", integer(100)),),
    )
    q = generate_query(req, patient_ctx())
    assert q.filters == (Filter(Variable("v0"), ">", integer(100)),)


def test_generate_query_unknown_concepts():
    ctx = patient_ctx()
    with pytest.raises(UnknownConcept):
        generate_query(ServiceRequirement(vocab.class_iri("Alien"), ()), ctx)
    with pytest.raises(UnknownConcept):
        generate_query(
            ServiceRequirement(vocab.class_iri("Patient"), (vocab.MOTION_COUNT,)), ctx
        )
