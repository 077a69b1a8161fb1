"""Service management: repository, discovery, templates, lifecycle, and
composition-flow orchestration.

Microservices here are in-process actors: a descriptor row in the repository
plus a handler callable keyed by kind.  The repository is one linearizable
registry — every transition and instantiation goes through its lock — while
flow execution dispatches independent DAG branches onto a small thread pool.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import (
    DuplicateId,
    IllegalTransition,
    LastRunningInstance,
    NoTemplate,
    ParamViolation,
    SingletonExists,
    UnknownCapability,
    UnresolvableKind,
)
from .objects import UserModel

REGISTERED = "Registered"
RUNNING = "Running"
HALTED = "Halted"
FAILED = "Failed"

_LEGAL_EDGES = {
    (REGISTERED, RUNNING),
    (RUNNING, HALTED),
    (HALTED, RUNNING),
}

DEFAULT_HALT_THRESHOLD = 64

_PARAM_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool}


@dataclass
class MicroserviceDescriptor:
    id: str
    kind: str
    endpoint: str
    state: str
    template_id: str
    load_queue_depth: int = 0
    domain_scope: frozenset[str] = frozenset()
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "endpoint": self.endpoint,
            "state": self.state,
            "templateId": self.template_id,
            "loadQueueDepth": self.load_queue_depth,
            "domainScope": sorted(self.domain_scope),
        }


@dataclass(frozen=True)
class ParamSpec:
    name: str
    type: str
    default: object = None
    required: bool = False


@dataclass(frozen=True)
class MicroserviceTemplate:
    template_id: str
    kind: str
    config_schema: tuple[ParamSpec, ...]
    singleton: bool = False


@dataclass(frozen=True)
class ServiceRequest:
    request_id: str
    user_id: object
    capability: str
    params: Mapping[str, object] = field(default_factory=dict)
    domains_hint: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Decision:
    approved: bool
    reason: str
    flow_id: str | None = None
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class FlowStep:
    step_id: str
    kind: str
    inputs: Mapping[str, object] = field(default_factory=dict)

    def dependencies(self) -> set[str]:
        deps = set()
        for source in self.inputs.values():
            if isinstance(source, str) and source.startswith("$steps."):
                deps.add(source.split(".", 2)[1])
        return deps


@dataclass(frozen=True)
class CompositionFlow:
    flow_id: str
    steps: tuple[FlowStep, ...]
    defaults: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        ids = [s.step_id for s in self.steps]
        if len(ids) != len(set(ids)):
            raise ParamViolation(f"flow {self.flow_id}: duplicate step ids")
        known = set(ids)
        for step in self.steps:
            for dep in step.dependencies():
                if dep not in known:
                    raise ParamViolation(
                        f"flow {self.flow_id}: step {step.step_id} wires from "
                        f"unknown step {dep}"
                    )
        self.topological_order()  # raises on cycles

    def topological_order(self) -> list[FlowStep]:
        by_id = {s.step_id: s for s in self.steps}
        order: list[FlowStep] = []
        state: dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(sid: str):
            mark = state.get(sid)
            if mark == 2:
                return
            if mark == 1:
                raise ParamViolation(f"flow {self.flow_id}: cycle through {sid}")
            state[sid] = 1
            for dep in sorted(by_id[sid].dependencies()):
                visit(dep)
            state[sid] = 2
            order.append(by_id[sid])

        for step in self.steps:
            visit(step.step_id)
        return order


@dataclass
class FlowResult:
    status: str  # "completed" | "failed"
    step_outputs: dict[str, object]
    step_states: dict[str, str]  # completed | failed | skipped
    failed_step: str | None = None


@dataclass(frozen=True)
class RequestRecord:
    request_id: str
    user_id: str
    capability: str
    approved: bool
    reason: str
    params: Mapping[str, object]


class RequestLog:
    def __init__(self):
        self._records: list[RequestRecord] = []
        self._lock = threading.Lock()

    def append(self, record: RequestRecord) -> None:
        with self._lock:
            self._records.append(record)

    def records(self) -> list[RequestRecord]:
        with self._lock:
            return list(self._records)


# --- repository -------------------------------------------------------------

Handler = Callable[[MicroserviceDescriptor, dict], dict]


class Repository:
    """Linearizable registry of descriptors, templates, flows and policy."""

    def __init__(self, halt_threshold: int = DEFAULT_HALT_THRESHOLD):
        self.halt_threshold = halt_threshold
        self._descriptors: dict[str, MicroserviceDescriptor] = {}
        self._templates: dict[str, MicroserviceTemplate] = {}
        self._templates_by_kind: dict[str, list[str]] = {}
        self._handlers: dict[str, Handler] = {}
        self._flows: dict[str, CompositionFlow] = {}
        self._capability_flows: dict[str, str] = {}
        self._policy: dict[str, int] = {}
        self._counters: dict[str, int] = {}
        self._lock = threading.RLock()

    # --- registration ---------------------------------------------------

    def add_template(self, template: MicroserviceTemplate) -> None:
        with self._lock:
            self._templates[template.template_id] = template
            kinds = self._templates_by_kind.setdefault(template.kind, [])
            if template.template_id not in kinds:
                kinds.append(template.template_id)
                kinds.sort()

    def remove_template(self, template_id: str) -> None:
        with self._lock:
            template = self._templates.pop(template_id, None)
            if template:
                self._templates_by_kind.get(template.kind, []).remove(template_id)

    def template_for_kind(self, kind: str) -> MicroserviceTemplate | None:
        with self._lock:
            ids = self._templates_by_kind.get(kind)
            return self._templates[ids[0]] if ids else None

    def register(self, descriptor: MicroserviceDescriptor) -> None:
        """Install a pre-built descriptor (tests, model checks, migration)."""
        with self._lock:
            if descriptor.id in self._descriptors:
                raise DuplicateId(f"descriptor {descriptor.id} already present")
            self._descriptors[descriptor.id] = descriptor

    def register_handler(self, kind: str, handler: Handler) -> None:
        with self._lock:
            self._handlers[kind] = handler

    def add_flow(self, flow: CompositionFlow, capability: str | None = None) -> None:
        with self._lock:
            self._flows[flow.flow_id] = flow
            if capability:
                self._capability_flows[capability] = flow.flow_id

    def flow(self, flow_id: str) -> CompositionFlow:
        with self._lock:
            return self._flows[flow_id]

    def flow_for_capability(self, capability: str) -> CompositionFlow | None:
        with self._lock:
            flow_id = self._capability_flows.get(capability)
            return self._flows[flow_id] if flow_id else None

    def set_policy(self, capability: str, min_level: int) -> None:
        with self._lock:
            self._policy[capability] = min_level

    def policy(self) -> dict[str, int]:
        with self._lock:
            return dict(self._policy)

    # --- descriptor access ----------------------------------------------

    def get(self, descriptor_id: str) -> MicroserviceDescriptor:
        with self._lock:
            try:
                return self._descriptors[descriptor_id]
            except KeyError:
                raise UnresolvableKind(descriptor_id) from None

    def descriptors(self) -> list[MicroserviceDescriptor]:
        with self._lock:
            return [self._descriptors[k] for k in sorted(self._descriptors)]

    def of_kind(self, kind: str) -> list[MicroserviceDescriptor]:
        with self._lock:
            return [
                self._descriptors[k]
                for k in sorted(self._descriptors)
                if self._descriptors[k].kind == kind
            ]

    def discover(self, kind: str) -> list[MicroserviceDescriptor]:
        """Running instances of the kind, least-loaded first, ties by id."""
        with self._lock:
            found = [
                d
                for d in self._descriptors.values()
                if d.kind == kind and d.state == RUNNING
            ]
            return sorted(found, key=lambda d: (d.load_queue_depth, d.id))

    # --- lifecycle ------------------------------------------------------

    def _transition(self, descriptor: MicroserviceDescriptor, target: str) -> None:
        if (descriptor.state, target) not in _LEGAL_EDGES:
            raise IllegalTransition(
                f"{descriptor.id}: {descriptor.state} -> {target} is not a legal edge"
            )
        descriptor.state = target

    def set_lifecycle(self, descriptor_id: str, target: str) -> MicroserviceDescriptor:
        with self._lock:
            descriptor = self.get(descriptor_id)
            if target not in (RUNNING, HALTED):
                raise IllegalTransition(f"cannot request target state {target!r}")
            if target == HALTED and descriptor.state == RUNNING:
                siblings_running = [
                    d
                    for d in self._descriptors.values()
                    if d.kind == descriptor.kind
                    and d.state == RUNNING
                    and d.id != descriptor_id
                ]
                if not siblings_running:
                    raise LastRunningInstance(
                        f"{descriptor_id} is the last Running {descriptor.kind}"
                    )
            self._transition(descriptor, target)
            return descriptor

    def mark_failed(self, descriptor_id: str) -> MicroserviceDescriptor:
        with self._lock:
            descriptor = self.get(descriptor_id)
            if descriptor.state == FAILED:
                raise IllegalTransition(f"{descriptor_id} already Failed")
            descriptor.state = FAILED
            return descriptor

    def set_depth(self, descriptor_id: str, depth: int) -> None:
        with self._lock:
            self.get(descriptor_id).load_queue_depth = depth

    def adjust_depth(self, descriptor_id: str, delta: int) -> None:
        with self._lock:
            d = self.get(descriptor_id)
            d.load_queue_depth = max(0, d.load_queue_depth + delta)

    # --- instantiation --------------------------------------------------

    def _validate_params(
        self, template: MicroserviceTemplate, params: Mapping[str, object]
    ) -> dict:
        merged: dict[str, object] = {}
        for spec in template.config_schema:
            if spec.name in params:
                value = params[spec.name]
            elif spec.default is not None or not spec.required:
                value = spec.default
            else:
                raise ParamViolation(
                    f"template {template.template_id}: missing required "
                    f"param {spec.name!r}"
                )
            expected = _PARAM_TYPES.get(spec.type)
            if value is not None and expected is not None:
                if isinstance(value, bool) and spec.type != "boolean":
                    raise ParamViolation(
                        f"param {spec.name!r} expects {spec.type}, got boolean"
                    )
                if not isinstance(value, expected):
                    raise ParamViolation(
                        f"param {spec.name!r} expects {spec.type}, "
                        f"got {type(value).__name__}"
                    )
            merged[spec.name] = value
        unknown = set(params) - {s.name for s in template.config_schema}
        if unknown:
            raise ParamViolation(f"unknown params: {sorted(unknown)}")
        return merged

    def instantiate(self, kind: str, params: Mapping[str, object] | None = None) -> MicroserviceDescriptor:
        with self._lock:
            template = self.template_for_kind(kind)
            if template is None:
                raise NoTemplate(f"no template for kind {kind!r}")
            if template.singleton:
                live = [
                    d
                    for d in self._descriptors.values()
                    if d.template_id == template.template_id and d.state != FAILED
                ]
                if live:
                    raise SingletonExists(
                        f"singleton template {template.template_id} already "
                        f"has live instance {live[0].id}"
                    )
            merged = self._validate_params(template, params or {})
            n = self._counters.get(kind, 0) + 1
            self._counters[kind] = n
            descriptor = MicroserviceDescriptor(
                id=f"{kind}-{n}",
                kind=kind,
                endpoint=f"/svc/{kind}/{n}",
                state=REGISTERED,
                template_id=template.template_id,
                params=merged,
            )
            self._descriptors[descriptor.id] = descriptor
            self._transition(descriptor, RUNNING)
            return descriptor

    # --- lifecycle monitor ----------------------------------------------

    def monitor_tick(self) -> dict[str, list[str]]:
        """Apply the load policy once: halt overloaded instances (keeping at
        least one Running per kind), resume Halted ones when load subsides or
        no Running sibling remains."""
        halted: list[str] = []
        resumed: list[str] = []
        with self._lock:
            kinds = sorted({d.kind for d in self._descriptors.values()})
            for kind in kinds:
                instances = self.of_kind(kind)
                running = [d for d in instances if d.state == RUNNING]
                idle = [d for d in instances if d.state == HALTED]

                overloaded = sorted(
                    (d for d in running if d.load_queue_depth > self.halt_threshold),
                    key=lambda d: (-d.load_queue_depth, d.id),
                )
                for d in overloaded:
                    if len(running) <= 1:
                        break
                    self._transition(d, HALTED)
                    running.remove(d)
                    idle.append(d)
                    halted.append(d.id)

                if not idle:
                    continue
                resume_floor = self.halt_threshold / 2
                if not running:
                    # availability floor: bring one back regardless of load
                    d = min(idle, key=lambda d: (d.load_queue_depth, d.id))
                    self._transition(d, RUNNING)
                    resumed.append(d.id)
                elif all(d.load_queue_depth < resume_floor for d in running):
                    # only instances whose own queue has drained come back;
                    # a just-halted overloaded one stays put until it drains
                    for d in sorted(idle, key=lambda d: (d.load_queue_depth, d.id)):
                        if d.load_queue_depth < resume_floor:
                            self._transition(d, RUNNING)
                            resumed.append(d.id)
        return {"halted": halted, "resumed": resumed}

    # --- execution ------------------------------------------------------

    def handler(self, kind: str) -> Handler | None:
        with self._lock:
            return self._handlers.get(kind)


# --- request evaluation -----------------------------------------------------

def evaluate_request(
    request: ServiceRequest,
    user: UserModel,
    repo: Repository,
    history: RequestLog,
) -> Decision:
    """Policy gate plus parameter layering: flow defaults, then the user's
    namespaced preferences, then explicit request params."""
    policy = repo.policy()
    if request.capability not in policy:
        raise UnknownCapability(f"capability {request.capability!r} not registered")
    flow = repo.flow_for_capability(request.capability)
    if flow is None:
        raise UnknownCapability(f"no flow mapped to {request.capability!r}")

    if user.access_level < policy[request.capability]:
        decision = Decision(False, "access-level")
    else:
        params = dict(flow.defaults)
        prefix = request.capability + "."
        for key, value in sorted(user.preferences.items()):
            if key.startswith(prefix):
                params[key[len(prefix):]] = value
        params.update(request.params)
        decision = Decision(True, "approved", flow.flow_id, params)

    history.append(
        RequestRecord(
            request_id=request.request_id,
            user_id=str(user.user_id),
            capability=request.capability,
            approved=decision.approved,
            reason=decision.reason,
            params=decision.params,
        )
    )
    return decision


# --- orchestration ----------------------------------------------------------

def _resolve_input(source, inputs: Mapping, outputs: Mapping[str, Mapping]):
    if isinstance(source, str):
        if source.startswith("$request."):
            return inputs.get(source[len("$request."):])
        if source.startswith("$steps."):
            _, sid, key = source.split(".", 2)
            step_output = outputs.get(sid) or {}
            return step_output.get(key)
    return source


def orchestrate(
    flow: CompositionFlow,
    inputs: Mapping[str, object],
    repo: Repository,
    max_workers: int = 4,
) -> FlowResult:
    """Run the flow's steps in topological waves.

    Before anything executes, every step kind is resolved: an existing
    Running instance is reused, otherwise one is instantiated from its
    template; with neither, UnresolvableKind surfaces and nothing runs.
    """
    order = flow.topological_order()
    for step in order:
        if not repo.discover(step.kind):
            if repo.template_for_kind(step.kind) is None:
                raise UnresolvableKind(step.kind)
            repo.instantiate(step.kind)

    states: dict[str, str] = {}
    outputs: dict[str, object] = {}
    failed_steps: list[str] = []
    remaining = list(order)

    def run_step(assignment: tuple[FlowStep, MicroserviceDescriptor]):
        step, descriptor = assignment
        handler = repo.handler(step.kind)
        step_inputs = {
            name: _resolve_input(src, inputs, outputs) for name, src in step.inputs.items()
        }
        try:
            out = handler(descriptor, step_inputs) if handler else {}
            return step.step_id, "completed", out
        except Exception as exc:
            return step.step_id, "failed", {"error": str(exc)}
        finally:
            repo.adjust_depth(descriptor.id, -1)

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        while remaining:
            ready: list[FlowStep] = []
            progressed = False
            for step in list(remaining):
                deps = step.dependencies()
                if any(states.get(d) in ("failed", "skipped") for d in deps):
                    states[step.step_id] = "skipped"
                    remaining.remove(step)
                    progressed = True
                elif all(states.get(d) == "completed" for d in deps):
                    ready.append(step)
                    remaining.remove(step)
                    progressed = True
            if not progressed:
                break  # unreachable while flows validate acyclic, kept defensive
            # dispatch decisions are taken serially, in topological order,
            # so identical repository state yields identical assignments even
            # though the wave itself runs concurrently
            assignments = []
            for step in ready:
                descriptor = repo.discover(step.kind)[0]
                repo.adjust_depth(descriptor.id, 1)
                assignments.append((step, descriptor))
            for step_id, state, out in pool.map(run_step, assignments):
                states[step_id] = state
                if state == "completed":
                    outputs[step_id] = out
                else:
                    failed_steps.append(step_id)

    if failed_steps:
        topo_ids = [s.step_id for s in order]
        first_failed = min(failed_steps, key=topo_ids.index)
        return FlowResult("failed", outputs, states, first_failed)
    return FlowResult("completed", outputs, states, None)


# --- config loading ---------------------------------------------------------

def template_from_json(doc: Mapping) -> MicroserviceTemplate:
    schema = tuple(
        ParamSpec(
            name=p["name"],
            type=p.get("type", "string"),
            default=p.get("default"),
            required=bool(p.get("required", "default" not in p)),
        )
        for p in doc.get("configSchema", [])
    )
    return MicroserviceTemplate(
        template_id=doc["templateId"],
        kind=doc["kind"],
        config_schema=schema,
        singleton=bool(doc.get("singleton", False)),
    )


def flow_from_json(doc: Mapping) -> CompositionFlow:
    return CompositionFlow(
        flow_id=doc["flowId"],
        steps=tuple(
            FlowStep(s["stepId"], s["kind"], dict(s.get("inputs", {})))
            for s in doc["steps"]
        ),
        defaults=dict(doc.get("defaults", {})),
    )


def load_templates(repo: Repository, docs: Iterable[Mapping]) -> None:
    for doc in docs:
        repo.add_template(template_from_json(doc))


def load_flows(repo: Repository, docs: Iterable[Mapping]) -> None:
    for doc in docs:
        repo.add_flow(flow_from_json(doc), doc.get("capability"))


def load_default_services(repo: Repository) -> None:
    """Load the bundled templates, flows and access policy into the repo."""
    base = Path(__file__).parent / "data" / "services"
    load_templates(repo, json.loads((base / "templates.json").read_text()))
    load_flows(repo, json.loads((base / "flows.json").read_text()))
    for capability, level in json.loads((base / "policy.json").read_text()).items():
        repo.set_policy(capability, level)
