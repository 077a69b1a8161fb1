"""The scenario runtime: every subsystem wired into one deterministic hub.

Domain simulators emit sensor traffic onto the message bus; the hub's
subscription materializes it into the central object registry.  Composite
objects react to the live data with publish rules, the medical facility's
relational batches travel translate -> annotate -> align -> validate ->
synchronize into the central store, and capability requests are
policy-checked, resolved to the domains that can serve them, and dispatched
through composition flows onto reasoning and analytics workers.

Resolution takes one of three paths.  A capability whose required object
classes all live in one domain is served from that domain directly
("single-domain").  A cross-domain capability builds a mashup — a merged,
validated graph drawn from every contributing domain — and caches it under
a structural signature (capability + classes + domains, never the
requesting user), so the next structurally identical request reuses the
graph without touching the interop pipeline at all ("mashup-cache-hit" vs
"mashup-generated").  A required class no domain provides raises
UnsatisfiableRequirement.

Everything runs off seeded RNGs and the simulated clock, so two runs of the
same scenario produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import services, vocab
from .analytics import (
    AnalyticsService,
    build_activity_features,
    build_location_features,
    load_analyzer_configs,
)
from .bus import Broker, Delivery
from .errors import (
    MalformedScenario,
    StaleSequence,
    UnknownCapability,
    UnknownSource,
    UnresolvableKind,
    UnsatisfiableRequirement,
)
from .interop import InteropServices, RelationalRecord, Synchronizer, load_mapping_dir
from .ml import predict
from .objects import (
    CVO_CLASS,
    CompositeVO,
    ObjectRegistry,
    Observation,
    PublishMessage,
    Rule,
    UserModel,
    VirtualObject,
)
from .reasoning import ReasoningService, load_default_programs
from .semantic import (
    Filter,
    GraphStore,
    Iri,
    Literal,
    Triple,
    TriplePattern,
    Variable,
    integer,
    query_from_json,
    serialize_term,
    serialize_triple,
)
from .services import Repository, RequestLog, ServiceRequest
from .simulate import (
    DomainSimulator,
    accuracy,
    chronological_split,
    generate_labeled_dataset,
    load_schedule,
)

DATA_DIR = Path(__file__).resolve().parent / "data"

SMART_HOME = "smart-home"
MEDICAL = "medical-facility"
OFFICE = "smart-office"

# sensor name -> (observed property, unit, object class)
SENSORS: dict[str, dict[str, tuple[Iri, str, str]]] = {
    SMART_HOME: {
        "motion": (vocab.MOTION_COUNT, "count", "MotionSensor"),
        "luminosity": (vocab.LUMINOSITY, "lux", "LuminositySensor"),
        "temperature": (vocab.TEMPERATURE, "celsius", "TemperatureSensor"),
        "appliance": (vocab.APPLIANCE_STATE, "state", "ApplianceSensor"),
    },
    MEDICAL: {
        "hr": (vocab.HEART_RATE, "bpm", "VitalsSensor"),
        "systolic": (vocab.SYSTOLIC, "mmHg", "VitalsSensor"),
        "diastolic": (vocab.DIASTOLIC, "mmHg", "VitalsSensor"),
    },
    OFFICE: {
        "beacon": (vocab.ZONE_READING, "zone", "ZoneBeacon"),
        "occupancy": (vocab.OCCUPANCY, "count", "OccupancySensor"),
    },
}

# capability -> object classes it needs observations from
CAPABILITY_CLASSES: dict[str, tuple[str, ...]] = {
    "analytics.physio-status": ("VitalsSensor",),
    "reason.activity": ("MotionSensor", "LuminositySensor"),
    "analytics.location": ("ZoneBeacon",),
    "analytics.activity-physio-correlation": ("MotionSensor", "VitalsSensor"),
}

CENTRAL_VITALS_GRAPH = vocab.graph_iri("central:vitals")

MINUTE_MS = 60_000


# --- scenario configuration -------------------------------------------------

@dataclass(frozen=True)
class ScriptedRequest:
    tick: int
    capability: str
    user: str


@dataclass(frozen=True)
class FaultEvent:
    """Kill every live instance of a kind; optionally drop its template so
    the instances cannot come back."""

    tick: int
    kind: str
    remove_template: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 42
    duration_ticks: int = 5000
    noise_rate: float = 0.1
    users: Mapping[str, int] = field(default_factory=lambda: {"alice": 3, "carol": 1})
    train_instances: int = 500
    holdout: float = 0.2
    cvo_rule_interval: int = 10
    medical_batch_interval: int = 30
    monitor_interval: int = 5
    requests: tuple[ScriptedRequest, ...] = ()
    faults: tuple[FaultEvent, ...] = ()

    @staticmethod
    def from_json(doc: Mapping) -> "ScenarioConfig":
        return ScenarioConfig(
            seed=int(doc.get("seed", 42)),
            duration_ticks=int(doc.get("durationTicks", 5000)),
            noise_rate=float(doc.get("noiseRate", 0.1)),
            users={str(k): int(v) for k, v in doc.get("users", {"alice": 3}).items()},
            train_instances=int(doc.get("trainInstances", 500)),
            holdout=float(doc.get("holdout", 0.2)),
            cvo_rule_interval=int(doc.get("cvoRuleInterval", 10)),
            medical_batch_interval=int(doc.get("medicalBatchInterval", 30)),
            monitor_interval=int(doc.get("monitorInterval", 5)),
            requests=tuple(
                ScriptedRequest(int(r["tick"]), str(r["capability"]), str(r["user"]))
                for r in doc.get("requests", ())
            ),
            faults=tuple(
                FaultEvent(
                    int(f["tick"]), str(f["kind"]), bool(f.get("removeTemplate", False))
                )
                for f in doc.get("faults", ())
            ),
        )


def load_scenario(path: str | Path | None = None) -> ScenarioConfig:
    """Read a scenario file; content that is not a valid scenario raises
    MalformedScenario, while an unreadable file raises OSError."""
    p = Path(path) if path else DATA_DIR / "scenario.json"
    try:
        return ScenarioConfig.from_json(json.loads(p.read_text(encoding="utf-8")))
    except KeyError as exc:
        raise MalformedScenario(f"scenario {p}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedScenario(f"scenario {p}: {exc}") from exc


# --- resolution -------------------------------------------------------------

@dataclass(frozen=True)
class Mashup:
    signature: str
    capability: str
    classes: tuple[str, ...]
    domains: tuple[str, ...]
    object_ids: tuple[Iri, ...]
    graph: Iri
    created_tick: int


@dataclass(frozen=True)
class Resolution:
    path: str  # single-domain | mashup-generated | mashup-cache-hit
    domains: tuple[str, ...]
    classes: tuple[str, ...]
    object_ids: tuple[Iri, ...]
    signature: str | None = None
    graph: Iri | None = None


def mashup_signature(
    capability: str, classes: Sequence[str], domains: Sequence[str]
) -> str:
    doc = {
        "capability": capability,
        "classes": sorted(classes),
        "domains": sorted(domains),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


# --- the hub ----------------------------------------------------------------

class Hub:
    """Owns the central store plus every service, and drives the tick loop."""

    def __init__(self, config: ScenarioConfig | None = None):
        self.config = config or load_scenario()
        self.schedule = load_schedule()
        self.store = GraphStore()
        self.registry = ObjectRegistry(self.store)
        self.broker = Broker()
        self.repo = Repository()
        self.request_log = RequestLog()
        self.reasoning = ReasoningService(self.registry, load_default_programs())
        self.analytics = AnalyticsService()
        # The hub facade serves resolution and ad-hoc queries; the medical
        # facility's facade carries its routine batch pipeline.  Separate
        # counter sets make "a cache hit touched nothing" checkable.
        self.interop = InteropServices(
            self.store, Synchronizer(self.store, functional=(vocab.PATIENT_ID,))
        )
        self.med_interop = InteropServices(
            self.store, Synchronizer(self.store, functional=(vocab.PATIENT_ID,))
        )
        self.mappings = load_mapping_dir(DATA_DIR / "mappings")
        self._domain_order = tuple(sorted(SENSORS))
        self.simulators = {
            domain: DomainSimulator(
                domain,
                self.schedule,
                seed=self.config.seed,
                noise_rate=self.config.noise_rate,
                users=tuple(sorted(self.config.users)),
            )
            for domain in self._domain_order
        }
        self._user_models: dict[str, UserModel] = {}
        self._vo_index: dict[tuple[str, str, str], Iri] = {}
        self._vo_class: dict[Iri, str] = {}
        self._class_domains: dict[str, set[str]] = {}
        self._cvo_ids: list[Iri] = []
        self._mashups: dict[str, Mashup] = {}
        self._med_pending: list[RelationalRecord] = []
        self._last_batch: list[RelationalRecord] = []
        self._resolution = {
            "single-domain": 0,
            "mashup-generated": 0,
            "mashup-cache-hit": 0,
            "denied": 0,
            "failed": 0,
        }
        self._validation = {"batches": 0, "valid": 0, "invalid": 0}
        self._rule_firings: dict[str, int] = {}
        self._alerts: dict[str, int] = {}
        self._request_records: list[dict] = []
        self._fault_log: list[dict] = []
        self._holdout_accuracy: dict[str, float] = {}
        self._analyzer_algorithms: dict[str, str] = {}
        self._boot_ids: set[str] = set()
        self._derived_total = 0
        self._ingest_rejected = 0
        self._request_seq = 0
        self._ticks_run = 0
        self._booted = False
        self._lock = threading.RLock()  # serializes request submission
        self._metrics_lock = threading.Lock()

    # --- boot ----------------------------------------------------------

    def boot(self, train: bool | None = None) -> "Hub":
        if self._booted:
            return self
        self._booted = True
        self._register_users()
        self._register_objects()
        self._register_cvos()
        self.broker.subscribe("hub-ingest", "obs/#", qos=0, callback=self._on_observation)
        self.broker.subscribe("hub-alerts", "cvo/#", qos=1, callback=self._on_alert)
        services.load_default_services(self.repo)
        self._register_handlers()
        for kind in sorted(self._flow_kinds()):
            if not self.repo.discover(kind):
                self.repo.instantiate(kind)
        self._boot_ids = {d.id for d in self.repo.descriptors()}
        if train if train is not None else self.config.duration_ticks > 0:
            self._train_models()
        return self

    def _register_users(self) -> None:
        for name in sorted(self.config.users):
            uid = vocab.user_iri(name)
            profile = vocab.graph_iri(f"user:{name}")
            self.store.insert(profile, Triple(uid, vocab.TYPE, vocab.class_iri("Person")))
            model = UserModel(uid, profile, {}, self.config.users[name])
            self.registry.register_user(model)
            self._user_models[name] = model

    def _register_objects(self) -> None:
        for domain in self._domain_order:
            for sensor in sorted(SENSORS[domain]):
                prop, unit, cls = SENSORS[domain][sensor]
                for name in sorted(self.config.users):
                    vo = VirtualObject(
                        id=Iri(f"urn:sem:vo:{domain}:{sensor}:{name}"),
                        domain=domain,
                        kind="sensor",
                        description_graph=vocab.graph_iri(f"vo:{domain}:{sensor}:{name}"),
                        observed_property=prop,
                        unit=unit,
                    )
                    self.registry.describe_vo(
                        vo,
                        extra=(
                            Triple(vo.id, vocab.TYPE, vocab.class_iri(cls)),
                            Triple(vo.id, vocab.MONITORS, vocab.user_iri(name)),
                        ),
                    )
                    self.registry.register_vo(vo)
                    self._vo_index[(domain, sensor, name)] = vo.id
                    self._vo_class[vo.id] = cls
                    self._class_domains.setdefault(cls, set()).add(domain)

    def _register_cvos(self) -> None:
        """Two bundled composites watch the first user's data streams."""
        first = sorted(self.config.users)[0]
        s, v = Variable("s"), Variable("v")
        self._add_cvo(
            "home-comfort",
            (
                self._vo_index[(SMART_HOME, "motion", first)],
                self._vo_index[(SMART_HOME, "luminosity", first)],
            ),
            Rule(
                id="high-motion",
                condition=(TriplePattern(s, vocab.MOTION_COUNT, v),),
                filters=(Filter(v, ">=", integer(20)),),
                action=PublishMessage(
                    "cvo/home-comfort/events",
                    {"sensor": "{?s}", "motion": "{?v}", "kind": "high-motion"},
                ),
            ),
        )
        self._add_cvo(
            "med-alerts",
            (
                self._vo_index[(MEDICAL, "hr", first)],
                self._vo_index[(MEDICAL, "systolic", first)],
            ),
            Rule(
                id="elevated-heart-rate",
                condition=(TriplePattern(s, vocab.HEART_RATE, v),),
                filters=(Filter(v, ">", Literal("125", "decimal")),),
                action=PublishMessage(
                    "cvo/med-alerts/events",
                    {"sensor": "{?s}", "hr": "{?v}", "kind": "elevated-heart-rate"},
                ),
            ),
        )

    def _add_cvo(self, name: str, members: tuple[Iri, ...], *rules: Rule) -> None:
        cvo_id = Iri(f"urn:sem:cvo:{name}")
        graph = vocab.graph_iri(f"cvo:{name}")
        self.store.insert(graph, Triple(cvo_id, vocab.TYPE, CVO_CLASS))
        self.registry.register_cvo(CompositeVO(cvo_id, members, tuple(rules), graph))
        self._cvo_ids.append(cvo_id)
        self._rule_firings[cvo_id.value] = 0

    def _flow_kinds(self) -> set[str]:
        kinds: set[str] = set()
        for capability in self.repo.policy():
            flow = self.repo.flow_for_capability(capability)
            if flow:
                kinds.update(step.kind for step in flow.steps)
        return kinds

    def _register_handlers(self) -> None:
        self.repo.register_handler("reason.activity", self._h_reason_activity)
        self.repo.register_handler("reason.location", self._h_reason_location)
        self.repo.register_handler("reason.physio", self._h_reason_physio)
        self.repo.register_handler("analytics.location", self._h_analytics_location)
        self.repo.register_handler("analytics.activity", self._h_analytics_activity)
        self.repo.register_handler("analytics.physio", self._h_analytics_physio)
        self.repo.register_handler("mashup.builder", self._h_mashup_builder)

    def _train_models(self) -> None:
        configs = load_analyzer_configs(DATA_DIR / "analytics")
        for analyzer in ("activity", "location", "physio"):
            data = generate_labeled_dataset(
                analyzer,
                self.config.train_instances,
                self.config.seed,
                self.config.noise_rate,
            )
            train_part, holdout = chronological_split(data, self.config.holdout)
            model = self.analytics.train_analyzer(analyzer, train_part, configs[analyzer])
            self._analyzer_algorithms[analyzer] = configs[analyzer].algorithm
            self._holdout_accuracy[analyzer] = round(
                accuracy(lambda fv: predict(model, fv).label, holdout), 4
            )

    # --- bus callbacks --------------------------------------------------

    def _on_observation(self, delivery: Delivery) -> None:
        doc = json.loads(bytes(delivery.payload).decode("utf-8"))
        obs = Observation(
            source=Iri(doc["vo"]),
            timestamp=int(doc["ts"]),
            value=Literal(doc["value"]["lexical"], doc["value"]["datatype"]),
            sequence=int(doc["seq"]),
        )
        try:
            self.registry.ingest(obs)
        except StaleSequence:
            with self._metrics_lock:
                self._ingest_rejected += 1

    def _on_alert(self, delivery: Delivery) -> None:
        topic = str(delivery.topic)
        with self._metrics_lock:
            self._alerts[topic] = self._alerts.get(topic, 0) + 1

    def _publish_event(self, topic: str, payload: Mapping) -> None:
        self.broker.publish_text(
            topic, json.dumps(payload, sort_keys=True), qos=1, publisher="cvo"
        )

    # --- tick loop ------------------------------------------------------

    def run(self) -> None:
        self.boot()
        requests_at: dict[int, list[ScriptedRequest]] = {}
        for r in self.config.requests:
            requests_at.setdefault(r.tick, []).append(r)
        faults_at: dict[int, list[FaultEvent]] = {}
        for f in self.config.faults:
            faults_at.setdefault(f.tick, []).append(f)
        for tick in range(self.config.duration_ticks):
            self._step(tick, faults_at.get(tick, ()), requests_at.get(tick, ()))
        self._ticks_run = self.config.duration_ticks

    def _step(
        self,
        tick: int,
        faults: Sequence[FaultEvent],
        requests: Sequence[ScriptedRequest],
    ) -> None:
        cfg = self.config
        wall = self.schedule.wall_ms(tick)
        for domain in self._domain_order:
            emissions, records = self.simulators[domain].emit(tick)
            for e in emissions:
                payload = json.dumps(
                    {
                        "seq": e.sequence,
                        "ts": e.timestamp,
                        "value": {"datatype": e.value.datatype, "lexical": e.value.lexical},
                        "vo": self._vo_index[(domain, e.sensor, e.user)].value,
                    },
                    sort_keys=True,
                )
                self.broker.publish_text(
                    f"obs/{domain}/{e.sensor}/{e.user}", payload, qos=0, publisher=domain
                )
            if records:
                self._med_pending.extend(records)
        self.broker.advance(self.schedule.tick_ms)
        for fault in faults:
            self._apply_fault(fault)
        if tick and tick % cfg.cvo_rule_interval == 0:
            self._evaluate_cvos()
        if tick and tick % cfg.medical_batch_interval == 0:
            self._medical_batch(wall)
        if tick and tick % cfg.monitor_interval == 0:
            self.repo.monitor_tick()
        for r in requests:
            self.submit_request(r.capability, r.user, tick)

    def _apply_fault(self, fault: FaultEvent) -> None:
        if fault.remove_template:
            template = self.repo.template_for_kind(fault.kind)
            if template:
                self.repo.remove_template(template.template_id)
        for d in self.repo.of_kind(fault.kind):
            if d.state != services.FAILED:
                self.repo.mark_failed(d.id)
        self._fault_log.append(
            {
                "tick": fault.tick,
                "kind": fault.kind,
                "removedTemplate": fault.remove_template,
            }
        )

    def _evaluate_cvos(self) -> None:
        for cvo_id in self._cvo_ids:
            fired = self.registry.evaluate_cvo_rules(cvo_id, publisher=self._publish_event)
            hits = sum(len(f.bindings) for f in fired if f.ok)
            if hits:
                self._rule_firings[cvo_id.value] += hits

    def _medical_batch(self, wall: int) -> None:
        records = self._med_pending
        self._med_pending = []
        if records:
            self._last_batch = records
        cfg = self.mappings
        triples = self.med_interop.translate(records, cfg.translations["medical-vitals"])
        annotated = self.med_interop.annotate(triples, cfg.ontologies["medical"])
        aligned = self.med_interop.align(annotated, cfg.alignments["medical-to-hub"])
        report = self.med_interop.validate(aligned, cfg.ontologies["hub-central"])
        self._validation["batches"] += 1
        if report.valid:
            self.med_interop.synchronize(aligned, CENTRAL_VITALS_GRAPH, wall)
            self._validation["valid"] += 1
        else:
            self._validation["invalid"] += 1

    # --- resolution -----------------------------------------------------

    def resolve(self, capability: str, tick: int = 0) -> Resolution:
        classes = CAPABILITY_CLASSES.get(capability)
        if classes is None:
            raise UnknownCapability(f"no requirement profile for {capability!r}")
        per_class: list[set[str]] = []
        for cls in classes:
            domains = self._class_domains.get(cls, set())
            if not domains:
                raise UnsatisfiableRequirement(
                    f"no registered object provides class {cls}"
                )
            per_class.append(domains)
        covering = sorted(set.intersection(*per_class))
        if covering:
            domain = covering[0]
            return Resolution(
                "single-domain",
                (domain,),
                tuple(classes),
                self._contributors(classes, (domain,)),
            )
        domains = tuple(sorted(set().union(*per_class)))
        signature = mashup_signature(capability, classes, domains)
        cached = self._mashups.get(signature)
        if cached is not None:
            return Resolution(
                "mashup-cache-hit",
                cached.domains,
                cached.classes,
                cached.object_ids,
                signature,
                cached.graph,
            )
        mashup = self._generate_mashup(capability, classes, domains, signature, tick)
        return Resolution(
            "mashup-generated",
            mashup.domains,
            mashup.classes,
            mashup.object_ids,
            signature,
            mashup.graph,
        )

    def _contributors(
        self, classes: Sequence[str], domains: Sequence[str]
    ) -> tuple[Iri, ...]:
        wanted = set(classes)
        scope = set(domains)
        ids = [
            vo.id
            for vo in self.registry.vos()
            if vo.domain in scope and self._vo_class.get(vo.id) in wanted
        ]
        return tuple(sorted(ids, key=lambda i: i.value))

    def _generate_mashup(
        self,
        capability: str,
        classes: Sequence[str],
        domains: Sequence[str],
        signature: str,
        tick: int,
    ) -> Mashup:
        graph = vocab.graph_iri(f"mashup:{signature[:12]}")
        wall = self.schedule.wall_ms(tick)
        hub_ctx = self.mappings.ontologies["hub-central"]
        object_ids = self._contributors(classes, domains)
        for domain in sorted(domains):
            if domain == MEDICAL:
                triples = self.interop.translate(
                    self._last_batch, self.mappings.translations["medical-vitals"]
                )
                annotated = self.interop.annotate(
                    triples, self.mappings.ontologies["medical"]
                )
                aligned = self.interop.align(
                    annotated, self.mappings.alignments["medical-to-hub"]
                )
                if self.interop.validate(aligned, hub_ctx).valid:
                    self.interop.synchronize(aligned, graph, wall)
            descriptions: list[Triple] = []
            for vo_id in object_ids:
                vo = self.registry.vo(vo_id)
                if vo.domain == domain:
                    descriptions.extend(self.store.triples(vo.description_graph))
            annotated = self.interop.annotate(descriptions, hub_ctx)
            if self.interop.validate(annotated, hub_ctx).valid:
                self.interop.synchronize(annotated, graph, wall)
        mashup = Mashup(
            signature,
            capability,
            tuple(sorted(classes)),
            tuple(sorted(domains)),
            object_ids,
            graph,
            tick,
        )
        self._mashups[signature] = mashup
        return mashup

    # --- request handling ----------------------------------------------

    def submit_request(self, capability: str, user: str, tick: int | None = None) -> dict:
        with self._lock:
            return self._submit(capability, user, self._ticks_run if tick is None else tick)

    def _submit(self, capability: str, user: str, tick: int) -> dict:
        self._request_seq += 1
        record: dict = {
            "id": f"req-{self._request_seq:04d}",
            "tick": tick,
            "capability": capability,
            "user": user,
        }
        model = self._user_models.get(user)
        if model is None:
            return self._finish(record, "failed", reason="unknown-user")
        request = ServiceRequest(record["id"], model.user_id, capability, {}, ())
        try:
            decision = services.evaluate_request(
                request, model, self.repo, self.request_log
            )
        except UnknownCapability as exc:
            return self._finish(record, "failed", reason=str(exc))
        if not decision.approved:
            return self._finish(record, "denied", reason=decision.reason)
        try:
            resolution = self.resolve(capability, tick)
        except UnsatisfiableRequirement as exc:
            return self._finish(record, "failed", reason=str(exc))
        record["path"] = resolution.path
        record["domains"] = list(resolution.domains)
        if resolution.signature:
            record["mashup"] = resolution.signature[:12]
        flow = self.repo.flow(decision.flow_id)
        inputs = {
            "user": user,
            "tick": tick,
            "wall": self.schedule.wall_ms(tick),
            **decision.params,
        }
        try:
            result = services.orchestrate(flow, inputs, self.repo)
        except UnresolvableKind as exc:
            return self._finish(record, "failed", reason=f"unresolvable-kind: {exc}")
        if result.status == "failed":
            detail = result.step_outputs.get(result.failed_step, {})
            return self._finish(
                record,
                "failed",
                reason=str(detail.get("error", "step failed")),
                failed_step=result.failed_step,
            )
        terminal = flow.topological_order()[-1].step_id
        record["result"] = dict(result.step_outputs.get(terminal, {}))
        return self._finish(record, "completed", bucket=resolution.path)

    def _finish(
        self, record: dict, outcome: str, bucket: str | None = None, **extra
    ) -> dict:
        record["outcome"] = outcome
        for key, value in extra.items():
            record["failedStep" if key == "failed_step" else key] = value
        counted = bucket or outcome
        if counted in self._resolution:
            self._resolution[counted] += 1
        self._request_records.append(record)
        return record

    # --- capability handlers --------------------------------------------

    def _reason_window(self, inputs: Mapping) -> tuple[Iri, tuple[int, int]]:
        user = vocab.user_iri(str(inputs["user"]))
        wall = int(inputs["wall"])
        minutes = int(inputs.get("windowMinutes") or 30)
        return user, (wall - minutes * MINUTE_MS, wall)

    def _count_derived(self, facts: Sequence[Triple]) -> None:
        with self._metrics_lock:
            self._derived_total += len(facts)

    @staticmethod
    def _fact_label(facts: Sequence[Triple], predicate: Iri) -> str:
        for t in facts:
            if t.predicate == predicate:
                if isinstance(t.object, Iri):
                    return t.object.value.rsplit(":", 1)[-1]
                return t.object.lexical
        return "none"

    def _h_reason_activity(self, descriptor, inputs: Mapping) -> Mapping:
        user, window = self._reason_window(inputs)
        facts = self.reasoning.run("activity", user, window)
        self._count_derived(facts)
        return {"activity": self._fact_label(facts, vocab.CURRENT_ACTIVITY)}

    def _h_reason_location(self, descriptor, inputs: Mapping) -> Mapping:
        user, window = self._reason_window(inputs)
        facts = self.reasoning.run("location", user, window)
        self._count_derived(facts)
        return {"zone": self._fact_label(facts, vocab.IN_ZONE)}

    def _h_reason_physio(self, descriptor, inputs: Mapping) -> Mapping:
        user, window = self._reason_window(inputs)
        facts = self.reasoning.run("physio-status", user, window)
        self._count_derived(facts)
        return {"status": self._fact_label(facts, vocab.PHYSIO_STATUS)}

    def _events(self, domain: str, sensor: str, user: str) -> list[tuple[int, str]]:
        vo_id = self._vo_index[(domain, sensor, user)]
        return [(o.timestamp, o.value.lexical) for o in self.registry.buffered(vo_id)]

    def _current_activity(self, user: str) -> str:
        uid = vocab.user_iri(user)
        graph = self.reasoning.output_graph("activity")
        for t in self.store.triples(graph):
            if t.subject == uid and t.predicate == vocab.CURRENT_ACTIVITY:
                return t.object.value.rsplit(":", 1)[-1]
        return "none"

    def _h_analytics_location(self, descriptor, inputs: Mapping) -> Mapping:
        user = str(inputs["user"])
        wall = int(inputs["wall"])
        events = self._events(OFFICE, "beacon", user)
        prediction = self.analytics.predict_for(
            "location", build_location_features(events, wall)
        )
        out = {"zone": prediction.label, "model": prediction.model_id}
        if inputs.get("zone") is not None:
            out["reasonedZone"] = str(inputs["zone"])
        return out

    def _h_analytics_activity(self, descriptor, inputs: Mapping) -> Mapping:
        user = str(inputs["user"])
        wall = int(inputs["wall"])
        current = self._current_activity(user)
        history = [] if current == "none" else [(wall, current)]
        motion = [(ts, float(v)) for ts, v in self._events(SMART_HOME, "motion", user)]
        prediction = self.analytics.predict_for(
            "activity", build_activity_features(history, motion, wall)
        )
        return {"activity": prediction.label, "model": prediction.model_id}

    def _h_analytics_physio(self, descriptor, inputs: Mapping) -> Mapping:
        user = str(inputs["user"])
        wall = int(inputs["wall"])
        hr = [(ts, float(v)) for ts, v in self._events(MEDICAL, "hr", user)]
        systolic = [(ts, float(v)) for ts, v in self._events(MEDICAL, "systolic", user)]
        prediction, code = self.analytics.analyze_physio_status(
            hr, systolic, self._current_activity(user), wall
        )
        out = {"status": prediction.label, "recommendation": code}
        if inputs.get("status") is not None:
            out["reasonedStatus"] = str(inputs["status"])
        return out

    def _h_mashup_builder(self, descriptor, inputs: Mapping) -> Mapping:
        activity = str(inputs.get("activity") or "none")
        status = str(inputs.get("status") or "none")
        code = self.analytics.recommendations.lookup(status, activity)
        return {
            "activity": activity,
            "status": status,
            "correlation": f"{status}/{activity}",
            "recommendation": code,
        }

    # --- introspection for the CLI / gateway ----------------------------

    def objects_overview(self) -> dict:
        vos = [
            {
                "id": vo.id.value,
                "domain": vo.domain,
                "class": self._vo_class.get(vo.id, "VirtualObject"),
                "property": vo.observed_property.value,
                "unit": vo.unit,
            }
            for vo in sorted(self.registry.vos(), key=lambda v: v.id.value)
        ]
        cvos = [
            {
                "id": cvo.id.value,
                "members": sorted(m.value for m in cvo.members),
                "rules": [r.id for r in cvo.rules],
            }
            for cvo in sorted(self.registry.cvos(), key=lambda c: c.id.value)
        ]
        return {"virtual": vos, "composite": cvos}

    def object_detail(self, iri: str) -> dict | None:
        vo_id = Iri(iri)
        try:
            vo = self.registry.vo(vo_id)
        except UnknownSource:
            return None
        description = sorted(
            serialize_triple(t) for t in self.store.triples(vo.description_graph)
        )
        recent = [
            {"ts": o.timestamp, "seq": o.sequence, "value": o.value.lexical}
            for o in self.registry.buffered(vo_id)[-5:]
        ]
        return {"id": iri, "description": description, "recent": recent}

    def services_overview(self) -> list[dict]:
        return [d.to_json() for d in sorted(self.repo.descriptors(), key=lambda d: d.id)]

    def run_query(self, doc: Mapping) -> dict:
        result, log_status = self.interop.process_query(query_from_json(doc))
        names = [v.name for v in result.variables]
        rows = [
            {name: serialize_term(term) for name, term in zip(names, row)}
            for row in result.rows
        ]
        return {"rows": rows, "count": len(rows), "logStatus": log_status}

    # --- reporting ------------------------------------------------------

    def report(self) -> dict:
        generated = self._resolution["mashup-generated"]
        hits = self._resolution["mashup-cache-hit"]
        ratio = round(hits / (hits + generated), 4) if hits + generated else 0.0
        analytics = {}
        for analyzer in ("activity", "location", "physio"):
            analytics[analyzer] = {
                "algorithm": self._analyzer_algorithms.get(analyzer, ""),
                "holdoutAccuracy": self._holdout_accuracy.get(analyzer, 0.0),
                "predictions": self.analytics.counters.get(analyzer, 0),
            }
        return {
            "scenario": {
                "seed": self.config.seed,
                "durationTicks": self.config.duration_ticks,
                "noiseRate": self.config.noise_rate,
                "users": dict(sorted(self.config.users.items())),
            },
            "resolution": {**self._resolution, "cacheHitRatio": ratio},
            "requests": list(self._request_records),
            "faults": list(self._fault_log),
            "objects": {
                "virtual": len(self.registry.vos()),
                "composite": len(self.registry.cvos()),
                **self.registry.counts(),
                "ingestRejected": self._ingest_rejected,
            },
            "ruleFirings": dict(sorted(self._rule_firings.items())),
            "alerts": dict(sorted(self._alerts.items())),
            "inference": {
                "runs": dict(sorted(self.reasoning.counters.items())),
                "derivedFacts": self._derived_total,
            },
            "analytics": analytics,
            "interop": {
                "hub": dict(sorted(self.interop.counters.items())),
                "medical": dict(sorted(self.med_interop.counters.items())),
            },
            "validation": dict(self._validation),
            "mashups": {
                "cached": len(self._mashups),
                "signatures": sorted(self._mashups),
            },
            "bus": dict(sorted(self.broker.stats.items())),
            "services": {
                "instances": self.services_overview(),
                "spawnedAfterBoot": sorted(
                    {d.id for d in self.repo.descriptors()} - self._boot_ids
                ),
            },
        }

    def report_json(self) -> str:
        return json.dumps(self.report(), indent=2, sort_keys=True) + "\n"

    def close(self) -> None:
        self.broker.shutdown()


def run_scenario(config: ScenarioConfig | None = None) -> dict:
    """Boot a hub, drive the configured scenario, and return its report."""
    hub = Hub(config)
    try:
        hub.run()
        return hub.report()
    finally:
        hub.close()
