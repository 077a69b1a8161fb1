"""Service repository, lifecycle policy, request gating and orchestration."""

import json
import random
import threading
from pathlib import Path

import pytest

from semhub import services
from semhub.errors import (
    DuplicateId,
    IllegalTransition,
    LastRunningInstance,
    NoTemplate,
    ParamViolation,
    SingletonExists,
    UnknownCapability,
    UnresolvableKind,
)
from semhub.objects import UserModel
from semhub.semantic import Iri
from semhub.services import (
    FAILED,
    HALTED,
    REGISTERED,
    RUNNING,
    CompositionFlow,
    Decision,
    FlowResult,
    FlowStep,
    MicroserviceDescriptor,
    MicroserviceTemplate,
    Repository,
    evaluate_request,
    load_default_services,
    orchestrate,
)

SERVICES_DIR = Path(services.__file__).parent / "data" / "services"


def make_repo() -> Repository:
    repo = Repository()
    repo.add_template(MicroserviceTemplate("tpl-worker", "worker"))
    return repo


def user(level=2, prefs=None) -> UserModel:
    return UserModel(
        user_id=Iri("urn:sem:user:alice"),
        profile_graph=Iri("urn:sem:graph:profile:alice"),
        preferences=prefs or {},
        access_level=level,
    )


# --- templates and instantiation -------------------------------------------


def test_instantiate_starts_running():
    repo = make_repo()
    d = repo.instantiate("worker")
    assert d.state == RUNNING
    assert d.id == "worker-1"


def test_instantiate_ids_are_sequential_per_kind():
    repo = make_repo()
    assert repo.instantiate("worker").id == "worker-1"
    assert repo.instantiate("worker").id == "worker-2"


def test_instantiate_without_template():
    repo = make_repo()
    with pytest.raises(NoTemplate):
        repo.instantiate("nonexistent")


def test_second_template_of_a_kind_replaces_the_first():
    repo = make_repo()
    repo.add_template(MicroserviceTemplate("tpl-worker-2", "worker", singleton=True))
    assert repo.template_for_kind("worker").template_id == "tpl-worker-2"
    assert repo.instantiate("worker").template_id == "tpl-worker-2"
    with pytest.raises(SingletonExists):
        repo.instantiate("worker")


def test_removed_template_cannot_instantiate():
    repo = make_repo()
    repo.remove_template("worker")
    assert repo.template_for_kind("worker") is None
    with pytest.raises(NoTemplate):
        repo.instantiate("worker")
    repo.remove_template("worker")  # removing a kind with no template is a no-op


def test_singleton_refuses_second_live_instance():
    repo = Repository()
    repo.add_template(MicroserviceTemplate("tpl-one", "one", singleton=True))
    first = repo.instantiate("one")
    with pytest.raises(SingletonExists):
        repo.instantiate("one")
    # a Halted instance still counts as live
    repo.register(
        MicroserviceDescriptor("one-x", "one", "/svc/one/x", RUNNING, "tpl-one")
    )
    repo.mark_failed(first.id)
    repo.mark_failed("one-x")
    # all prior instances failed: replacement allowed
    assert repo.instantiate("one").state == RUNNING


def test_register_duplicate_descriptor_id():
    repo = make_repo()
    d = repo.instantiate("worker")
    with pytest.raises(DuplicateId):
        repo.register(d)


# --- lifecycle edges --------------------------------------------------------


def test_halt_resume_cycle():
    repo = make_repo()
    a = repo.instantiate("worker")
    repo.instantiate("worker")
    repo.set_lifecycle(a.id, HALTED)
    assert a.state == HALTED
    repo.set_lifecycle(a.id, RUNNING)
    assert a.state == RUNNING


def test_halting_last_running_instance_refused():
    repo = make_repo()
    a = repo.instantiate("worker")
    with pytest.raises(LastRunningInstance):
        repo.set_lifecycle(a.id, HALTED)
    assert a.state == RUNNING
    repo.instantiate("worker")
    repo.set_lifecycle(a.id, HALTED)  # now has a Running sibling
    assert a.state == HALTED


def test_self_transitions_are_illegal():
    repo = make_repo()
    a = repo.instantiate("worker")
    repo.instantiate("worker")
    with pytest.raises(IllegalTransition):
        repo.set_lifecycle(a.id, RUNNING)  # Running -> Running
    repo.set_lifecycle(a.id, HALTED)
    with pytest.raises(IllegalTransition):
        repo.set_lifecycle(a.id, HALTED)  # Halted -> Halted


def test_registered_cannot_be_halted_directly():
    repo = make_repo()
    repo.register(
        MicroserviceDescriptor("worker-x", "worker", "/svc/x", REGISTERED, "tpl-worker")
    )
    with pytest.raises(IllegalTransition):
        repo.set_lifecycle("worker-x", HALTED)


def test_mark_failed_from_any_state_but_not_twice():
    repo = make_repo()
    a = repo.instantiate("worker")
    b = repo.instantiate("worker")
    repo.set_lifecycle(b.id, HALTED)
    repo.mark_failed(a.id)
    repo.mark_failed(b.id)
    assert a.state == FAILED and b.state == FAILED
    with pytest.raises(IllegalTransition):
        repo.mark_failed(a.id)


def test_failed_instance_cannot_be_revived():
    repo = make_repo()
    a = repo.instantiate("worker")
    repo.instantiate("worker")
    repo.mark_failed(a.id)
    with pytest.raises(IllegalTransition):
        repo.set_lifecycle(a.id, RUNNING)


def test_set_lifecycle_rejects_exotic_targets():
    repo = make_repo()
    a = repo.instantiate("worker")
    for target in (REGISTERED, FAILED, "Paused"):
        with pytest.raises(IllegalTransition):
            repo.set_lifecycle(a.id, target)


# --- discovery --------------------------------------------------------------


def test_discover_orders_by_depth_then_id():
    repo = make_repo()
    a = repo.instantiate("worker")
    b = repo.instantiate("worker")
    c = repo.instantiate("worker")
    repo.set_depth(a.id, 5)
    repo.set_depth(b.id, 2)
    repo.set_depth(c.id, 2)
    assert [d.id for d in repo.discover("worker")] == [b.id, c.id, a.id]


def test_discover_filters_nonrunning():
    repo = make_repo()
    a = repo.instantiate("worker")
    b = repo.instantiate("worker")
    c = repo.instantiate("worker")
    repo.register(
        MicroserviceDescriptor("worker-r", "worker", "/svc/r", REGISTERED, "tpl-worker")
    )
    repo.set_lifecycle(b.id, HALTED)
    repo.mark_failed(c.id)
    assert [d.id for d in repo.discover("worker")] == [a.id]


def test_discover_unknown_kind_is_empty():
    assert make_repo().discover("worker") == []


# --- lifecycle monitor ------------------------------------------------------


def test_monitor_halts_overloaded_with_running_sibling():
    repo = make_repo()
    a = repo.instantiate("worker")
    b = repo.instantiate("worker")
    repo.set_depth(a.id, 100)
    repo.set_depth(b.id, 10)
    report = repo.monitor_tick()
    assert report["halted"] == [a.id]
    assert a.state == HALTED and b.state == RUNNING


def test_monitor_threshold_is_strictly_greater():
    repo = make_repo()
    a = repo.instantiate("worker")
    repo.instantiate("worker")
    repo.set_depth(a.id, 64)
    assert repo.monitor_tick()["halted"] == []
    repo.set_depth(a.id, 65)
    assert repo.monitor_tick()["halted"] == [a.id]


def test_monitor_never_halts_last_running():
    repo = make_repo()
    a = repo.instantiate("worker")
    repo.set_depth(a.id, 500)
    assert repo.monitor_tick()["halted"] == []
    assert a.state == RUNNING


def test_monitor_halts_deepest_first_keeps_one():
    repo = make_repo()
    a = repo.instantiate("worker")
    b = repo.instantiate("worker")
    c = repo.instantiate("worker")
    repo.set_depth(a.id, 90)
    repo.set_depth(b.id, 100)
    repo.set_depth(c.id, 80)
    report = repo.monitor_tick()
    # all three overloaded; deepest two get halted, one survives
    assert report["halted"] == [b.id, a.id]
    assert c.state == RUNNING


def test_monitor_resumes_when_load_subsides():
    repo = make_repo()
    a = repo.instantiate("worker")
    b = repo.instantiate("worker")
    repo.set_depth(a.id, 100)
    repo.monitor_tick()
    assert a.state == HALTED
    repo.set_depth(a.id, 0)  # its queue drained while halted
    repo.set_depth(b.id, 40)  # sibling still >= threshold/2
    assert repo.monitor_tick()["resumed"] == []
    repo.set_depth(b.id, 31)
    assert repo.monitor_tick()["resumed"] == [a.id]
    assert a.state == RUNNING


def test_monitor_does_not_resume_undrained_instance():
    repo = make_repo()
    a = repo.instantiate("worker")
    b = repo.instantiate("worker")
    repo.set_depth(a.id, 100)
    repo.monitor_tick()
    repo.set_depth(b.id, 0)
    # sibling load subsided but a's own queue is still deep
    assert repo.monitor_tick()["resumed"] == []
    assert a.state == HALTED


def test_monitor_restores_availability_after_failures():
    repo = make_repo()
    a = repo.instantiate("worker")
    b = repo.instantiate("worker")
    repo.set_depth(a.id, 100)
    repo.monitor_tick()
    repo.mark_failed(b.id)
    # no Running instance left; the halted one comes back despite its load
    assert repo.monitor_tick()["resumed"] == [a.id]
    assert a.state == RUNNING


def test_auto_halt_liveness_under_random_load():
    rng = random.Random("load-trace")
    repo = make_repo()
    ids = [repo.instantiate("worker").id for _ in range(3)]
    for _ in range(200):
        for i in ids:
            if repo.get(i).state == RUNNING and rng.random() < 0.3:
                repo.set_depth(i, rng.choice([5, 20, 70, 120]))
        repo.monitor_tick()
        running = [i for i in ids if repo.get(i).state == RUNNING]
        assert len(running) >= 1
        # anything still Running above threshold must have been the last one
        over = [i for i in running if repo.get(i).load_queue_depth > 64]
        assert not over or len(running) == 1


# --- exhaustive small-trace model check -------------------------------------


MODEL_EVENTS = (
    "halt:a", "halt:b", "resume:a", "resume:b",
    "spike:a", "spike:b", "tick",
)


def _model_repo(config):
    (state_a, depth_a), (state_b, depth_b) = config
    repo = Repository()
    repo.add_template(MicroserviceTemplate("tpl-m", "m"))
    repo.register(MicroserviceDescriptor("m-a", "m", "/a", state_a, "tpl-m", depth_a))
    repo.register(MicroserviceDescriptor("m-b", "m", "/b", state_b, "tpl-m", depth_b))
    return repo


def _apply_event(repo, event):
    name, _, target = event.partition(":")
    did = f"m-{target}"
    try:
        if name == "halt":
            repo.set_lifecycle(did, HALTED)
        elif name == "resume":
            repo.set_lifecycle(did, RUNNING)
        elif name == "spike":
            repo.set_depth(did, 100)
        elif name == "tick":
            repo.monitor_tick()
    except (IllegalTransition, LastRunningInstance):
        pass  # refusals leave state untouched


def check_lifecycle_traces(max_events=6):
    """Walk every distinct configuration reachable within `max_events`
    lifecycle events and verify both safety properties on each edge.

    Every trace of length <= max_events is a path through this graph, so
    checking each (configuration, event) pair once covers them all.
    """
    legal = {(REGISTERED, RUNNING), (RUNNING, HALTED), (HALTED, RUNNING)}
    start = ((RUNNING, 0), (RUNNING, 0))
    frontier = {start}
    seen = {start}
    edges_checked = 0
    for _ in range(max_events):
        next_frontier = set()
        for config in frontier:
            for event in MODEL_EVENTS:
                repo = _model_repo(config)
                before = {d.id: d.state for d in repo.descriptors()}
                _apply_event(repo, event)
                after_descriptors = repo.descriptors()
                after = {d.id: d.state for d in after_descriptors}
                for did in before:
                    if before[did] != after[did]:
                        assert (before[did], after[did]) in legal, (
                            config, event, did, before[did], after[did],
                        )
                running = sum(1 for d in after_descriptors if d.state == RUNNING)
                assert running >= 1, (config, event)
                edges_checked += 1
                result = tuple(
                    (d.state, d.load_queue_depth) for d in after_descriptors
                )
                if result not in seen:
                    seen.add(result)
                    next_frontier.add(result)
        frontier = next_frontier
        if not frontier:
            break
    return edges_checked, len(seen)


def test_exhaustive_six_event_traces_safe():
    edges, configs = check_lifecycle_traces(6)
    assert edges >= len(MODEL_EVENTS)  # at least the first layer ran
    assert configs > 1


# --- request evaluation -----------------------------------------------------


def gated_repo():
    repo = Repository()
    repo.add_template(MicroserviceTemplate("tpl-w", "worker"))
    repo.register_handler("worker", lambda d, p: {"ok": True})
    repo.add_flow(
        CompositionFlow(
            "flow-w",
            (FlowStep("only", "worker", {"user": "$request.user"}),),
            {"windowMinutes": 15},
        ),
        capability="analytics.demo",
    )
    repo.set_policy("analytics.demo", 2)
    return repo


def test_request_approved_at_exact_level():
    repo = gated_repo()
    decision = evaluate_request("analytics.demo", user(level=2), repo)
    assert decision.approved and decision.flow_id == "flow-w"
    assert decision.params == {"windowMinutes": 15}


def test_request_denied_below_level():
    repo = gated_repo()
    decision = evaluate_request("analytics.demo", user(level=1), repo)
    assert decision == Decision(False, "access-level")


def test_unknown_capability_raises():
    repo = gated_repo()
    with pytest.raises(UnknownCapability):
        evaluate_request("analytics.mystery", user(), repo)


def test_preferences_override_flow_defaults():
    repo = gated_repo()
    prefs = {
        "analytics.demo.windowMinutes": "30",
        "analytics.other.windowMinutes": "99",  # different capability: ignored
    }
    decision = evaluate_request("analytics.demo", user(level=2, prefs=prefs), repo)
    assert decision.params == {"windowMinutes": "30"}


def test_access_monotonicity():
    repo = gated_repo()
    repo.set_policy("analytics.low", 0)
    repo.add_flow(
        CompositionFlow("flow-low", (FlowStep("only", "worker"),)),
        capability="analytics.low",
    )
    for capability in ("analytics.demo", "analytics.low"):
        verdicts = []
        for level in range(4):
            decision = evaluate_request(capability, user(level=level), repo)
            verdicts.append(decision.approved)
        # once approved, stays approved at every higher level
        first_true = verdicts.index(True)
        assert all(verdicts[first_true:])
        assert not any(verdicts[:first_true])


# --- composition flows ------------------------------------------------------


def test_flow_rejects_duplicate_step_ids():
    with pytest.raises(ParamViolation):
        CompositionFlow("f", (FlowStep("s", "k"), FlowStep("s", "k")))


def test_flow_rejects_unknown_wire_source():
    with pytest.raises(ParamViolation):
        CompositionFlow("f", (FlowStep("s", "k", {"x": "$steps.ghost.out"}),))


def test_flow_rejects_cycles():
    with pytest.raises(ParamViolation):
        CompositionFlow(
            "f",
            (
                FlowStep("a", "k", {"x": "$steps.b.out"}),
                FlowStep("b", "k", {"x": "$steps.a.out"}),
            ),
        )


def test_topological_order_respects_dependencies():
    flow = CompositionFlow(
        "diamond",
        (
            FlowStep("top", "k"),
            FlowStep("left", "k", {"x": "$steps.top.out"}),
            FlowStep("right", "k", {"x": "$steps.top.out"}),
            FlowStep("join", "k", {"l": "$steps.left.out", "r": "$steps.right.out"}),
        ),
    )
    order = [s.step_id for s in flow.topological_order()]
    assert order.index("top") < order.index("left")
    assert order.index("top") < order.index("right")
    assert order.index("join") == 3


# --- orchestration ----------------------------------------------------------


def flow_repo(handlers):
    repo = Repository()
    for kind, handler in handlers.items():
        repo.add_template(MicroserviceTemplate(f"tpl-{kind}", kind))
        repo.instantiate(kind)
        repo.register_handler(kind, handler)
    return repo


def test_orchestrate_linear_wiring():
    repo = flow_repo(
        {
            "double": lambda d, p: {"value": p["value"] * 2},
            "inc": lambda d, p: {"value": p["value"] + 1},
        }
    )
    flow = CompositionFlow(
        "f",
        (
            FlowStep("first", "double", {"value": "$request.seed"}),
            FlowStep("second", "inc", {"value": "$steps.first.value"}),
        ),
    )
    result = orchestrate(flow, {"seed": 10}, repo)
    assert result.status == "completed"
    assert result.step_outputs == {"first": {"value": 20}, "second": {"value": 21}}
    assert result.step_states == {"first": "completed", "second": "completed"}
    assert result.failed_step is None


def test_orchestrate_literal_inputs_pass_through():
    repo = flow_repo({"echo": lambda d, p: dict(p)})
    flow = CompositionFlow("f", (FlowStep("e", "echo", {"mode": "fast", "n": 3}),))
    result = orchestrate(flow, {}, repo)
    assert result.step_outputs["e"] == {"mode": "fast", "n": 3}


def test_orchestrate_diamond_failure_skips_descendants():
    calls = []

    def ok(d, p):
        calls.append("ok")
        return {"out": 1}

    def boom(d, p):
        raise RuntimeError("step exploded")

    repo = flow_repo({"ok": ok, "boom": boom})
    flow = CompositionFlow(
        "diamond",
        (
            FlowStep("top", "ok"),
            FlowStep("left", "boom", {"x": "$steps.top.out"}),
            FlowStep("right", "ok", {"x": "$steps.top.out"}),
            FlowStep("join", "ok", {"l": "$steps.left.out", "r": "$steps.right.out"}),
        ),
    )
    result = orchestrate(flow, {}, repo)
    assert result.status == "failed"
    assert result.failed_step == "left"
    assert result.step_states == {
        "top": "completed",
        "left": "failed",
        "right": "completed",
        "join": "skipped",
    }
    assert "join" not in result.step_outputs


def test_orchestrate_failure_in_one_branch_leaves_other_complete():
    repo = flow_repo(
        {"ok": lambda d, p: {"out": 1}, "boom": lambda d, p: 1 / 0}
    )
    flow = CompositionFlow(
        "forked",
        (
            FlowStep("a", "boom"),
            FlowStep("b", "ok"),
            FlowStep("after-b", "ok", {"x": "$steps.b.out"}),
        ),
    )
    result = orchestrate(flow, {}, repo)
    assert result.status == "failed"
    assert result.step_states["b"] == "completed"
    assert result.step_states["after-b"] == "completed"
    assert result.step_states["a"] == "failed"


def test_orchestrate_auto_instantiates_from_template():
    repo = Repository()
    repo.add_template(MicroserviceTemplate("tpl-late", "late"))
    repo.register_handler("late", lambda d, p: {"svc": d.id})
    flow = CompositionFlow("f", (FlowStep("s", "late"),))
    assert repo.discover("late") == []
    result = orchestrate(flow, {}, repo)
    assert result.status == "completed"
    assert result.step_outputs["s"] == {"svc": "late-1"}
    assert [d.id for d in repo.discover("late")] == ["late-1"]


def test_orchestrate_unresolvable_kind_runs_nothing():
    calls = []
    repo = flow_repo({"ok": lambda d, p: calls.append(1) or {}})
    flow = CompositionFlow(
        "f", (FlowStep("a", "ok"), FlowStep("b", "ghost-kind"))
    )
    with pytest.raises(UnresolvableKind):
        orchestrate(flow, {}, repo)
    assert calls == []


def test_orchestrate_dispatches_to_least_loaded():
    repo = flow_repo({"w": lambda d, p: {"svc": d.id}})
    second = repo.instantiate("w")
    repo.set_depth("w-1", 9)
    repo.set_depth(second.id, 0)
    result = orchestrate(
        CompositionFlow("f", (FlowStep("s", "w"),)), {}, repo
    )
    assert result.step_outputs["s"] == {"svc": "w-2"}


def test_orchestrate_restores_queue_depths():
    repo = flow_repo({"w": lambda d, p: {}})
    flow = CompositionFlow("f", (FlowStep("a", "w"), FlowStep("b", "w")))
    orchestrate(flow, {}, repo)
    assert repo.get("w-1").load_queue_depth == 0


def test_orchestrate_deterministic_outputs_and_dispatch():
    def handler(d, p):
        return {"svc": d.id, "value": p.get("value")}

    def build():
        repo = flow_repo({"w": handler})
        repo.instantiate("w")
        return repo

    flow = CompositionFlow(
        "f",
        (
            FlowStep("a", "w", {"value": "$request.x"}),
            FlowStep("b", "w", {"value": "$request.x"}),
            FlowStep("c", "w", {"value": "$steps.a.value"}),
        ),
    )
    runs = [orchestrate(flow, {"x": 7}, build()) for _ in range(5)]
    assert all(r.step_outputs == runs[0].step_outputs for r in runs)
    # each step is dispatched when it starts, after the one before it has
    # released its instance, so every step lands on the idle w-1
    assert [runs[0].step_outputs[s]["svc"] for s in "abc"] == ["w-1"] * 3


def test_orchestrate_one_step_waves_run_on_calling_thread():
    threads = []

    def inc(d, p):
        threads.append(threading.get_ident())
        return {"value": sum(p.values()) + 1}

    repo = flow_repo({"inc": inc})
    repo.instantiate("inc")  # a second instance the fan-out could use
    flow = CompositionFlow(
        "diamond",
        (
            FlowStep("top", "inc", {"value": "$request.x"}),
            FlowStep("left", "inc", {"value": "$steps.top.value"}),
            FlowStep("right", "inc", {"value": "$steps.top.value"}),
            FlowStep("join", "inc", {"l": "$steps.left.value", "r": "$steps.right.value"}),
        ),
    )
    result = orchestrate(flow, {"x": 0}, repo)
    assert result.status == "completed"
    assert result.step_outputs["join"] == {"value": 5}
    assert threads == [threading.get_ident()] * 4


def test_orchestrate_failing_one_step_wave_skips_descendants():
    repo = flow_repo({"ok": lambda d, p: {"out": 1}, "boom": lambda d, p: 1 / 0})
    flow = CompositionFlow(
        "chain",
        (
            FlowStep("a", "ok"),
            FlowStep("b", "boom", {"x": "$steps.a.out"}),
            FlowStep("c", "ok", {"x": "$steps.b.out"}),
            FlowStep("d", "ok", {"x": "$steps.c.out"}),
        ),
    )
    result = orchestrate(flow, {}, repo)
    assert result == FlowResult(
        "failed",
        {"a": {"out": 1}, "b": {"error": "division by zero"}},
        {"a": "completed", "b": "failed", "c": "skipped", "d": "skipped"},
        failed_step="b",
    )
    assert repo.get("ok-1").load_queue_depth == 0
    assert repo.get("boom-1").load_queue_depth == 0


# --- bundled config ---------------------------------------------------------


def test_bundled_services_config_loads():
    repo = Repository()
    load_default_services(repo)
    assert repo.policy()["analytics.physio-status"] == 2
    flow = repo.flow_for_capability("analytics.activity-physio-correlation")
    assert flow is not None
    assert [s.step_id for s in flow.topological_order()][-1] == "correlate"
    assert repo.template_for_kind("reason.activity") is not None
    # the repository keys templates by kind, so no two bundled ones may share one
    kinds = [doc["kind"] for doc in json.loads((SERVICES_DIR / "templates.json").read_text())]
    assert len(kinds) == len(set(kinds))


def test_bundled_mashup_builder_is_singleton():
    repo = Repository()
    load_default_services(repo)
    repo.instantiate("mashup.builder")
    with pytest.raises(SingletonExists):
        repo.instantiate("mashup.builder")
