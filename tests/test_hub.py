"""End-to-end behavior of the scenario runtime.

The expensive pieces (model training, the tick loop) run once per module
where possible; dedicated hubs are built only for fault injection and
cache-path checks that need pristine counters.
"""

import hashlib
import json
import threading
from dataclasses import replace

import pytest

from semhub import hub as hubmod
from semhub import reasoning, semantic, vocab
from semhub.analytics import AnalyticsService
from semhub.bus import Message, Topic
from semhub.errors import UnknownCapability, UnsatisfiableRequirement
from semhub.hub import (
    FaultEvent,
    Hub,
    ScenarioConfig,
    ScriptedRequest,
    load_scenario,
    mashup_signature,
    run_scenario,
)
from semhub.objects import Observation
from semhub.semantic import integer

SHORT = ScenarioConfig(
    duration_ticks=150,
    requests=(
        ScriptedRequest(40, "analytics.physio-status", "alice"),
        ScriptedRequest(65, "analytics.activity-physio-correlation", "alice"),
        ScriptedRequest(80, "analytics.activity-physio-correlation", "carol"),
        ScriptedRequest(90, "analytics.location", "alice"),
        ScriptedRequest(100, "reason.activity", "alice"),
        ScriptedRequest(110, "analytics.physio-status", "carol"),
    ),
    users={"alice": 3, "carol": 2},
)


def test_scenario_range_edges_accepted():
    # each value is the edge of its range, so building the config raises nothing
    edges = ScenarioConfig(
        noise_rate=0.0,
        users={"low": 0, "high": 3},
        train_instances=7,  # 5 to train on and 2 held out at holdout 0.2
        cvo_rule_interval=1,
        medical_batch_interval=1,
        monitor_interval=1,
    )
    replace(edges, noise_rate=1.0, holdout=0.5, train_instances=10)  # 5 and 5


@pytest.fixture(scope="module")
def ran():
    h = Hub(SHORT)
    h.run()
    yield h
    h.close()


@pytest.fixture()
def booted():
    h = Hub(ScenarioConfig(duration_ticks=0))
    h.boot()
    yield h
    h.close()


# --- configuration ----------------------------------------------------------

def test_default_scenario_shape():
    cfg = load_scenario()
    assert cfg.seed == 42
    assert cfg.duration_ticks == 5000
    assert cfg.users == {"alice": 3, "carol": 1}
    assert len(cfg.requests) == 13
    capabilities = {r.capability for r in cfg.requests}
    assert "analytics.activity-physio-correlation" in capabilities
    assert cfg.faults == ()


def test_config_from_minimal_doc():
    cfg = ScenarioConfig.from_json({})
    assert cfg.duration_ticks == 5000
    assert cfg.users == {"alice": 3}
    assert cfg.requests == ()


def test_config_parses_faults():
    cfg = ScenarioConfig.from_json(
        {"faults": [{"tick": 9, "kind": "reason.activity", "removeTemplate": True}]}
    )
    assert cfg.faults == (FaultEvent(9, "reason.activity", True),)


# --- boot -------------------------------------------------------------------

def test_boot_registers_objects_and_users(booted):
    overview = booted.objects_overview()
    # 9 sensor roles x 1 user in the zero-duration config
    assert len(overview["virtual"]) == 9 * len(booted.config.users)
    assert len(overview["composite"]) == 2
    domains = {vo["domain"] for vo in overview["virtual"]}
    assert domains == {"smart-home", "medical-facility", "smart-office"}


def test_boot_is_idempotent(booted):
    before = len(booted.objects_overview()["virtual"])
    booted.boot()
    assert len(booted.objects_overview()["virtual"]) == before


def test_boot_starts_one_worker_per_flow_kind(booted):
    descriptors = booted.services_overview()
    kinds = sorted(d["kind"] for d in descriptors)
    assert kinds == [
        "analytics.location",
        "analytics.physio",
        "mashup.builder",
        "reason.activity",
        "reason.location",
        "reason.physio",
    ]
    assert all(d["state"] == "Running" for d in descriptors)


# --- resolution -------------------------------------------------------------

def test_single_domain_resolution(booted):
    res = booted.resolve("analytics.physio-status")
    assert res.path == "single-domain"
    assert res.domains == ("medical-facility",)
    assert res.signature is None

    res = booted.resolve("analytics.location")
    assert res.domains == ("smart-office",)

    res = booted.resolve("reason.activity")
    assert res.path == "single-domain"
    assert res.domains == ("smart-home",)


def test_cross_domain_builds_then_reuses_mashup(booted):
    first = booted.resolve("analytics.activity-physio-correlation")
    assert first.path == "mashup-generated"
    assert first.domains == ("medical-facility", "smart-home")
    assert first.signature is not None

    second = booted.resolve("analytics.activity-physio-correlation")
    assert second.path == "mashup-cache-hit"
    assert second.signature == first.signature
    assert second.graph == first.graph
    assert replace(second, path="mashup-generated") == first


def test_cache_hit_touches_no_interop_service(booted):
    booted.resolve("analytics.activity-physio-correlation")  # generate (or reuse)
    snapshot = dict(booted.interop.counters)
    for _ in range(3):
        res = booted.resolve("analytics.activity-physio-correlation")
        assert res.path == "mashup-cache-hit"
    assert booted.interop.counters == snapshot


def test_generation_exercises_translate_and_align():
    # Fresh hub so the counters start at zero.
    h = Hub(ScenarioConfig(duration_ticks=0))
    h.boot()
    try:
        before = dict(h.interop.counters)
        assert before["translate"] == 0 and before["align"] == 0
        res = h.resolve("analytics.activity-physio-correlation")
        assert res.path == "mashup-generated"
        after = h.interop.counters
        assert after["translate"] == 1
        assert after["align"] == 1
        assert after["validate"] >= 2  # medical slice + per-domain descriptions
    finally:
        h.close()


def test_mashup_graph_holds_merged_descriptions(booted):
    res = booted.resolve("analytics.activity-physio-correlation")
    triples = list(booted.store.triples(res.graph))
    assert triples, "mashup graph should not be empty"
    subjects = {t.subject for t in triples}
    assert any("smart-home:motion" in s.value for s in subjects)
    assert any("medical-facility:hr" in s.value for s in subjects)


def test_signature_is_structural_not_positional():
    a = mashup_signature("cap", ["B", "A"], ["y", "x"])
    b = mashup_signature("cap", ["A", "B"], ["x", "y"])
    assert a == b
    assert mashup_signature("cap2", ["A", "B"], ["x", "y"]) != a


def test_signature_ignores_requesting_user():
    h = Hub(ScenarioConfig(duration_ticks=0, users={"ann": 3, "bob": 3}))
    h.boot()
    try:
        first = h.submit_request("analytics.activity-physio-correlation", "ann")
        second = h.submit_request("analytics.activity-physio-correlation", "bob")
        assert first["path"] == "mashup-generated"
        assert second["path"] == "mashup-cache-hit"
        assert first["mashup"] == second["mashup"]
    finally:
        h.close()


def test_unsatisfiable_requirement(booted, monkeypatch):
    monkeypatch.setitem(
        hubmod.CAPABILITY_CLASSES, "analytics.physio-status", ("SeismographSensor",)
    )
    with pytest.raises(UnsatisfiableRequirement):
        booted.resolve("analytics.physio-status")


def test_unknown_capability_rejected(booted):
    with pytest.raises(UnknownCapability):
        booted.resolve("analytics.weather")


# --- the scripted scenario --------------------------------------------------

def test_short_run_resolution_counts(ran):
    r = ran.report()["resolution"]
    assert r["single-domain"] == 4  # physio x2, location, activity
    assert r["mashup-generated"] == 1
    assert r["mashup-cache-hit"] == 1
    assert r["denied"] == 0  # carol has level 2 here
    assert r["failed"] == 0
    assert r["cacheHitRatio"] == 0.5


def test_requests_recorded_in_submission_order(ran):
    records = ran.report()["requests"]
    assert [r["id"] for r in records] == [f"req-{i:04d}" for i in range(1, 7)]
    assert [r["tick"] for r in records] == sorted(r["tick"] for r in records)


def test_correlation_reuses_other_users_mashup(ran):
    records = ran.report()["requests"]
    gen = [r for r in records if r.get("path") == "mashup-generated"]
    hit = [r for r in records if r.get("path") == "mashup-cache-hit"]
    assert len(gen) == 1 and gen[0]["user"] == "alice"
    assert len(hit) == 1 and hit[0]["user"] == "carol"
    assert gen[0]["mashup"] == hit[0]["mashup"]


def test_observations_flowed_over_the_bus(ran):
    report = ran.report()
    assert report["bus"]["published"] == report["bus"]["delivered"]
    assert report["objects"]["observations"] > 1000
    assert report["objects"]["stale_dropped"] == 0
    assert report["objects"]["ingestRejected"] == 0


def test_stale_observation_is_counted_once_by_the_registry(booted):
    vo_id = vocab.vo_iri("smart-home", "motion", "alice")
    obs = Observation(vo_id, booted.schedule.wall_ms(1), integer(3), 1)
    for _ in range(2):
        booted.broker.publish(Message(Topic.parse("obs/smart-home/motion/alice"), obs))
    objects = booted.report()["objects"]
    assert objects["observations"] == 1
    assert objects["ingestRejected"] == objects["stale_dropped"] == 1


def test_step_publishes_typed_observations(booted):
    seen = []
    booted.broker.subscribe("spy", "obs/#", qos=0, callback=seen.append)
    booted._step(0, (), ())
    assert seen
    for delivery in seen:
        _, domain, sensor, user = delivery.topic.segments
        obs = delivery.payload
        assert isinstance(obs, Observation)
        assert obs.source == vocab.vo_iri(domain, sensor, user)
        assert obs in booted.registry.buffered(obs.source)


def test_medical_batches_validated_and_synchronized(ran):
    report = ran.report()
    # ticks 0..149 -> batches at 30, 60, 90, 120
    assert report["validation"]["batches"] == 4
    assert report["validation"]["invalid"] == 0
    vitals = list(ran.store.triples(hubmod.CENTRAL_VITALS_GRAPH))
    typed = [
        t
        for t in vitals
        if t.predicate == vocab.TYPE and t.object == vocab.class_iri("VitalsRecord")
    ]
    assert typed, "translated vitals rows should be typed in the central graph"
    assert any(t.predicate == vocab.PATIENT_ID for t in vitals)


def test_invalid_medical_batch_is_counted(booted, monkeypatch):
    validate = booted.med_interop.validate
    failed = []

    def fail_once(triples, ctx):
        report = validate(triples, ctx)
        if failed:
            return report
        failed.append(report)
        return replace(report, valid=False)

    monkeypatch.setattr(booted.med_interop, "validate", fail_once)
    for _ in range(3):
        booted._medical_batch(booted.schedule.wall_ms(0))
    assert len(failed) == 1
    assert booted.report()["validation"] == {"batches": 3, "valid": 2, "invalid": 1}


def test_central_vitals_keeps_a_window_of_medical_batches():
    h = Hub(ScenarioConfig(duration_ticks=600, medical_batch_interval=2))
    h.boot()
    state = h.med_interop.synchronizer._state
    new_subjects = []  # per batch, the record subjects it brought
    sizes = []  # per batch, (central vitals triples, synchronizer state keys)
    seen = set()
    try:
        for tick in range(600):
            batches = h.med_interop.counters["validate"]
            h._step(tick, (), ())
            if h.med_interop.counters["validate"] == batches:
                continue
            present = {t.subject for t in h.store.triples(hubmod.CENTRAL_VITALS_GRAPH)}
            new_subjects.append(present - seen)
            seen |= present
            sizes.append((h.store.graph_size(hubmod.CENTRAL_VITALS_GRAPH), len(state)))
            window = set().union(*new_subjects[-hubmod.VITALS_WINDOW_BATCHES:])
            # no triple or state key of an evicted record's subject remains
            assert present == window
            assert {subject for _, subject, _ in state} == window
    finally:
        h.close()
    assert len(sizes) == 299 and all(new_subjects)
    assert sizes[hubmod.VITALS_WINDOW_BATCHES - 1] > sizes[0]
    assert len(set(sizes[hubmod.VITALS_WINDOW_BATCHES:])) == 1


def test_routine_batches_do_not_touch_hub_facade(ran):
    report = ran.report()
    assert report["interop"]["medical"]["translate"] == 4  # one per batch
    # one mashup generation is the only hub-facade traffic
    assert report["interop"]["hub"]["translate"] == 1
    assert report["interop"]["hub"]["align"] == 1


def test_reasoning_counters_track_flow_runs(ran):
    runs = ran.report()["inference"]["runs"]
    # physio flow runs reason.physio; correlation runs activity+physio branches
    assert runs["activity"] == 3  # 2 correlations + 1 reason.activity request
    assert runs["physio-status"] == 4  # 2 physio + 2 correlation branches
    assert runs["location"] == 1


def test_analytics_trained_and_scored(ran):
    analytics = ran.report()["analytics"]
    for analyzer in ("activity", "location", "physio"):
        assert analytics[analyzer]["holdoutAccuracy"] > 0.5
    assert analytics["location"]["algorithm"] == "knn"
    assert analytics["physio"]["predictions"] == 2


def test_report_is_deterministic():
    first = Hub(SHORT)
    first.run()
    one = first.report_json()
    first.close()
    second = Hub(SHORT)
    second.run()
    two = second.report_json()
    second.close()
    assert one == two


# sha256 of `hub run --seed 42` (the bundled scenario); a change that alters
# the default report must update this deliberately.
DEFAULT_REPORT_SHA256 = "834138f0d04b4f0735eef03533573f3db8712c556e6bf4e4ef62acacbc5d0c8f"


def test_default_report_bytes_are_pinned():
    text = json.dumps(run_scenario(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_REPORT_SHA256


def test_zero_duration_report_is_all_zero():
    report = run_scenario(ScenarioConfig(duration_ticks=0))
    assert report["resolution"] == {
        "single-domain": 0,
        "mashup-generated": 0,
        "mashup-cache-hit": 0,
        "denied": 0,
        "failed": 0,
        "cacheHitRatio": 0.0,
    }
    assert report["requests"] == []
    assert report["objects"]["observations"] == 0
    assert report["bus"]["published"] == 0
    assert report["validation"] == {"batches": 0, "valid": 0, "invalid": 0}
    assert report["inference"]["derivedFacts"] == 0
    for analyzer in report["analytics"].values():
        assert analyzer["predictions"] == 0
        assert analyzer["holdoutAccuracy"] == 0.0


def test_requests_after_the_run_keep_a_tail(monkeypatch):
    monkeypatch.setattr(hubmod, "REQUEST_RECORD_TAIL", 3)
    h = Hub(
        ScenarioConfig(
            duration_ticks=2,
            requests=(
                ScriptedRequest(0, "reason.activity", "alice"),
                ScriptedRequest(1, "analytics.location", "alice"),
            ),
        )
    )
    try:
        h.run()
        for _ in range(5):
            h.submit_request("reason.activity", "alice")
        report = h.report()
    finally:
        h.close()
    assert [r["id"] for r in report["requests"]] == [
        "req-0001", "req-0002", "req-0005", "req-0006", "req-0007"
    ]
    resolution = report["resolution"]
    assert resolution["single-domain"] == 7
    assert sum(v for k, v in resolution.items() if k != "cacheHitRatio") == 7


def test_unknown_user_is_a_failed_request(booted):
    record = booted.submit_request("reason.activity", "mallory")
    assert record["outcome"] == "failed"
    assert record["reason"] == "unknown-user"


def test_failed_step_error_reaches_request_record(booted):
    def offline(descriptor, inputs):
        raise RuntimeError("sensor feed offline")

    booted.repo.register_handler("reason.activity", offline)
    record = booted.submit_request("reason.activity", "alice")
    assert record["outcome"] == "failed"
    assert record["reason"] == "sensor feed offline"
    assert record["failedStep"] == "derive"


def test_fan_out_flow_starts_no_thread(booted, monkeypatch):
    def no_thread(self):
        raise AssertionError(f"request started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for path in ("mashup-generated", "mashup-cache-hit"):
        record = booted.submit_request("analytics.activity-physio-correlation", "alice", 0)
        assert (record["outcome"], record["path"]) == ("completed", path)


def test_reasoning_adds_no_graph_to_the_shared_store(booted, monkeypatch):
    motion = vocab.vo_iri("smart-home", "motion", "alice")
    booted.registry.ingest(Observation(motion, booted.schedule.wall_ms(0), integer(5), 1))
    before = set(booted.store.graphs())
    during = []
    infer_fixpoint = reasoning.infer_fixpoint

    def spy(store, prog):
        during.append(set(booted.store.graphs()))
        return infer_fixpoint(store, prog)

    monkeypatch.setattr(reasoning, "infer_fixpoint", spy)
    record = booted.submit_request("reason.activity", "alice", 0)
    assert record["outcome"] == "completed"
    assert during and all(graphs <= before for graphs in during)


def test_a_past_tick_request_reads_no_later_readings(monkeypatch):
    """A request at tick 400 of a 600-tick run sees what the hub held at
    tick 400: its analyzers get no reading timestamped after that tick."""
    seen = []
    build_location_features = hubmod.build_location_features
    analyze_physio_status = AnalyticsService.analyze_physio_status

    def location_spy(zone_events, t):
        seen.append(("location", t, zone_events))
        return build_location_features(zone_events, t)

    def physio_spy(self, heart_rate, systolic, current_activity, t):
        seen.append(("physio", t, [*heart_rate, *systolic]))
        return analyze_physio_status(self, heart_rate, systolic, current_activity, t)

    monkeypatch.setattr(hubmod, "build_location_features", location_spy)
    monkeypatch.setattr(AnalyticsService, "analyze_physio_status", physio_spy)
    h = Hub(ScenarioConfig(duration_ticks=600, users={"alice": 3}))
    try:
        h.run()
        for capability in ("analytics.location", "analytics.physio-status"):
            assert h.submit_request(capability, "alice", 400)["outcome"] == "completed"
        wall = h.schedule.wall_ms(400)
    finally:
        h.close()
    assert [(name, t) for name, t, _ in seen] == [("location", wall), ("physio", wall)]
    for name, _, events in seen:
        assert events, name
        assert max(ts for ts, _ in events) <= wall, name


# --- composite-object rules -------------------------------------------------

def test_rules_and_logged_queries_compile_once(monkeypatch):
    """Each CVO rule, inference rule and distinct normalized query builds
    its plan once; repeated CVO passes, derivations and log hits build none."""
    compiled = []
    init = semantic.Plan.__init__

    def counted(plan, patterns, filters=()):
        compiled.append(tuple(patterns))
        init(plan, patterns, filters)

    monkeypatch.setattr(semantic.Plan, "__init__", counted)
    hub = Hub(ScenarioConfig(duration_ticks=300, requests=()))
    hub.boot()
    cvo_rules = [rule for cvo in hub.registry.cvos() for rule in cvo.rules]
    inference_rules = [rule for rules in hub.reasoning.programs.values() for rule in rules]
    assert len(compiled) == len(cvo_rules) + len(inference_rules)
    booted = len(compiled)

    hub.run()  # 300 ticks of CVO passes
    capabilities = (
        "analytics.physio-status",
        "reason.activity",
        "analytics.location",
        "analytics.activity-physio-correlation",
    )
    for i in range(20):  # derivations, the mashup once, then its cache hits
        hub.submit_request(capabilities[i % 4], ("alice", "carol")[i // 4 % 2])
    assert hub.reasoning.counters["physio-status"] > 0
    assert len(compiled) == booted

    docs = [
        {"select": [f"?s{i}", f"?v{i}"], "where": [[f"?s{i}", "urn:sem:heartRate", f"?v{i}"]]}
        for i in range(10)
    ] + [
        {
            "select": ["?r", "?hr"],
            "where": [
                ["?r", "urn:sem:type", "urn:sem:class:VitalsRecord"],
                ["?r", "urn:sem:heartRate", "?hr"],
            ],
            "filters": [{"var": "?hr", "op": ">", "value": {"value": threshold, "type": "decimal"}}],
        }
        for threshold in ("60", "80")
    ] * 5
    statuses = [hub.run_query(doc)["logStatus"] for doc in docs]
    assert statuses.count("miss-generated") == 3
    assert len(compiled) == booted + 3
    hub.close()


def test_cvo_rule_fires_and_publishes_alert(booted):
    vo_id = vocab.vo_iri("smart-home", "motion", "alice")
    obs = Observation(vo_id, booted.schedule.wall_ms(1), integer(42), 1)
    booted.broker.publish(Message(Topic.parse("obs/smart-home/motion/alice"), obs))
    booted._evaluate_cvos()
    assert booted._rule_firings["urn:sem:cvo:home-comfort"] == 1
    assert booted._alerts.get("cvo/home-comfort/events") == 1
    # below-threshold motion adds nothing new
    booted._evaluate_cvos()
    assert booted._rule_firings["urn:sem:cvo:home-comfort"] == 2  # still bound


# --- fault injection --------------------------------------------------------

def kill_and_request(remove_template: bool) -> dict:
    cfg = ScenarioConfig(
        duration_ticks=80,
        requests=(
            ScriptedRequest(20, "reason.activity", "alice"),
            ScriptedRequest(60, "reason.activity", "alice"),
        ),
        faults=(FaultEvent(40, "reason.activity", remove_template),),
    )
    return run_scenario(cfg)


def test_killed_kind_respawns_from_template():
    report = kill_and_request(remove_template=False)
    assert report["resolution"]["failed"] == 0
    outcomes = [r["outcome"] for r in report["requests"]]
    assert outcomes == ["completed", "completed"]
    assert report["services"]["spawnedAfterBoot"] == ["reason.activity-2"]
    states = {d["id"]: d["state"] for d in report["services"]["instances"]}
    assert states["reason.activity-1"] == "Failed"
    assert states["reason.activity-2"] == "Running"


def test_killed_kind_without_template_surfaces_error():
    report = kill_and_request(remove_template=True)
    assert report["resolution"]["failed"] == 1
    second = report["requests"][1]
    assert second["outcome"] == "failed"
    assert "unresolvable-kind" in second["reason"]
    assert "reason.activity" in second["reason"]
    assert report["services"]["spawnedAfterBoot"] == []


# --- introspection ----------------------------------------------------------

def test_object_detail_roundtrip(ran):
    vo_id = "urn:sem:vo:smart-home:motion:alice"
    detail = ran.object_detail(vo_id)
    assert detail["id"] == vo_id
    assert any("motionCount" in line for line in detail["description"])
    assert len(detail["recent"]) == 5
    assert ran.object_detail("urn:sem:vo:nowhere") is None


def test_query_endpoint_over_central_store(ran):
    doc = {
        "select": ["?vo"],
        "where": [["?vo", "urn:sem:type", "urn:sem:class:MotionSensor"]],
        "graphs": ["urn:sem:graph:vo:smart-home:motion:alice"],
    }
    out = ran.run_query(doc)
    assert out["count"] == 1
    assert out["rows"][0]["vo"] == "<urn:sem:vo:smart-home:motion:alice>"
    assert ran.interop.counters["query"] >= 1


def test_run_scenario_convenience_matches_hub():
    cfg = ScenarioConfig(duration_ticks=40)
    direct = run_scenario(cfg)
    h = Hub(cfg)
    h.run()
    via_hub = h.report()
    h.close()
    assert direct == via_hub
