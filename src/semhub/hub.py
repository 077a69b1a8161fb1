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
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Mapping, Sequence

from . import services, vocab
from .analytics import MINUTE_MS, AnalyticsService, build_location_features, load_analyzer_configs
from .bus import Broker, Delivery, Message, Topic
from .errors import (
    InvalidFilter,
    MalformedIri,
    MalformedScenario,
    StaleSequence,
    TickOutOfRange,
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
    serialize_triple,
)
from .services import Repository
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

# flow kind -> (reasoner, key of the derived label in the step's output)
REASONERS: dict[str, tuple[str, str]] = {
    "reason.activity": ("activity", "activity"),
    "reason.location": ("location", "zone"),
    "reason.physio": ("physio-status", "status"),
}

CENTRAL_VITALS_GRAPH = vocab.graph_iri("central:vitals")

# Medical batches whose records the central vitals graph keeps: a batch's
# records leave it once this many later batches have run, so the graph spans
# this many medical batch intervals of simulated time.
VITALS_WINDOW_BATCHES = 12

# Request records the report keeps from after the run, newest last; every
# record made before `run()` returns is kept.  A server answering requests
# after the run would otherwise keep one record per request it ever served.
REQUEST_RECORD_TAIL = 1024

# The smallest training part of a split: the bundled k-NN analyzers use k = 5.
MIN_TRAINING_INSTANCES = 5


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

    def __post_init__(self):
        """Refuse values the run cannot use, naming the scenario key."""
        if self.duration_ticks < 0:
            raise MalformedScenario(
                f"durationTicks must not be negative, got {self.duration_ticks}"
            )
        for key, interval in (
            ("cvoRuleInterval", self.cvo_rule_interval),
            ("medicalBatchInterval", self.medical_batch_interval),
            ("monitorInterval", self.monitor_interval),
        ):
            if interval < 1:
                raise MalformedScenario(f"{key} must be at least 1, got {interval}")
        if not 0 <= self.noise_rate <= 1:
            raise MalformedScenario(f"noiseRate must be within [0, 1], got {self.noise_rate}")
        if not 0 < self.holdout < 1:
            raise MalformedScenario(f"holdout must be within (0, 1), got {self.holdout}")
        for key, events in (("requests", self.requests), ("faults", self.faults)):
            for i, event in enumerate(events):
                if not 0 <= event.tick < self.duration_ticks:
                    raise MalformedScenario(
                        f"{key}[{i}]: tick {event.tick} is outside this run's "
                        f"ticks 0..{self.duration_ticks - 1}"
                    )
        if not self.users:
            raise MalformedScenario("users must name at least one user")
        for name, level in sorted(self.users.items()):
            try:  # the user's IRI and observation topics are built from the name
                vocab.user_iri(name)
                Topic.parse(f"obs/{name}")
            except (InvalidFilter, MalformedIri) as exc:
                raise MalformedScenario(f"users: {name!r} cannot name a user: {exc}") from None
            if not 0 <= level <= 3:
                raise MalformedScenario(
                    f"users: level of {name!r} must be within 0..3, got {level}"
                )
        train, held = chronological_split(range(self.train_instances), self.holdout)
        if len(train) < MIN_TRAINING_INSTANCES or not held:
            raise MalformedScenario(
                f"trainInstances {self.train_instances} splits into {len(train)} "
                f"training and {len(held)} holdout instances at holdout "
                f"{self.holdout}; training needs {MIN_TRAINING_INSTANCES} and "
                "holdout at least 1"
            )

    def check_tick(self, tick: int) -> None:
        """Refuse a request tick the run never reaches: ticks run from 0 to
        `duration_ticks`, the end of the run."""
        if not 0 <= tick <= self.duration_ticks:
            raise TickOutOfRange(
                f"tick {tick} is outside this run's ticks 0..{self.duration_ticks}"
            )

    @staticmethod
    def from_json(doc: Mapping) -> "ScenarioConfig":
        doc = _json(doc, "the document", "object")
        return ScenarioConfig(
            seed=_json(doc.get("seed", 42), "seed", "integer"),
            duration_ticks=_json(doc.get("durationTicks", 5000), "durationTicks", "integer"),
            noise_rate=_json(doc.get("noiseRate", 0.1), "noiseRate", "number"),
            users={
                str(k): _json(v, f"users: level of {str(k)!r}", "integer")
                for k, v in _json(doc.get("users", {"alice": 3}), "users", "object").items()
            },
            train_instances=_json(doc.get("trainInstances", 500), "trainInstances", "integer"),
            holdout=_json(doc.get("holdout", 0.2), "holdout", "number"),
            cvo_rule_interval=_json(doc.get("cvoRuleInterval", 10), "cvoRuleInterval", "integer"),
            medical_batch_interval=_json(
                doc.get("medicalBatchInterval", 30), "medicalBatchInterval", "integer"
            ),
            monitor_interval=_json(doc.get("monitorInterval", 5), "monitorInterval", "integer"),
            requests=tuple(
                ScriptedRequest(
                    _required(r, f"requests[{i}]", "tick", "integer"),
                    _required(r, f"requests[{i}]", "capability", "string"),
                    _required(r, f"requests[{i}]", "user", "string"),
                )
                for i, r in enumerate(_objects(doc.get("requests", []), "requests"))
            ),
            faults=tuple(
                FaultEvent(
                    _required(f, f"faults[{i}]", "tick", "integer"),
                    _required(f, f"faults[{i}]", "kind", "string"),
                    _json(f.get("removeTemplate", False), f"faults[{i}].removeTemplate", "boolean"),
                )
                for i, f in enumerate(_objects(doc.get("faults", []), "faults"))
            ),
        )


_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "boolean": bool,
               "object": Mapping, "list": list}


def _json(value, key: str, kind: str):
    """A scenario value that must be the named JSON kind, taken as it is:
    int() would truncate a float, str() takes any value and bool() reads
    "false" as true.  A boolean is of no kind but "boolean", and a number
    reads as a float."""
    if (isinstance(value, bool) and kind != "boolean") or not isinstance(value, _JSON_TYPES[kind]):
        raise MalformedScenario(f"{key} must be a JSON {kind}, got {value!r}")
    return float(value) if kind == "number" else value


def _required(entry: Mapping, where: str, name: str, kind: str):
    """A key that a scenario entry must hold, of the JSON kind; a missing
    key is named with its list and index, as in `faults[0].kind`."""
    key = f"{where}.{name}"
    if name not in entry:
        raise MalformedScenario(f"{key} is missing")
    return _json(entry[name], key, kind)


def _objects(value, key: str) -> list:
    """A scenario value that must be a JSON list of JSON objects: iterating
    a string or an object would read an empty one as no events."""
    entries = _json(value, key, "list")
    return [_json(entry, f"{key}[{i}]", "object") for i, entry in enumerate(entries)]


def load_scenario(path: str | Path | None = None) -> ScenarioConfig:
    """Read a scenario file; content that is not a valid scenario raises
    MalformedScenario, while an unreadable file raises OSError."""
    p = Path(path) if path else DATA_DIR / "scenario.json"
    try:
        return ScenarioConfig.from_json(json.loads(p.read_text(encoding="utf-8")))
    except (AttributeError, TypeError, ValueError, RecursionError) as exc:
        raise MalformedScenario(f"scenario {p}: {exc}") from exc


# --- resolution -------------------------------------------------------------

@dataclass(frozen=True)
class Resolution:
    path: str  # single-domain | mashup-generated | mashup-cache-hit
    domains: tuple[str, ...]
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
        self.reasoning = ReasoningService(self.registry, load_default_programs())
        self.analytics = AnalyticsService()
        self.mappings = load_mapping_dir(DATA_DIR / "mappings")
        central = self.mappings.ontologies["hub-central"]
        functional = [p for p, spec in central.predicates.items() if spec.functional]
        # The hub facade serves resolution and ad-hoc queries; the medical
        # facility's facade carries its routine batch pipeline.  Separate
        # counter sets make "a cache hit touched nothing" checkable.
        self.interop = InteropServices(self.store, Synchronizer(self.store, functional))
        self.med_interop = InteropServices(self.store, Synchronizer(self.store, functional))
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
        self._vo_topic: dict[Iri, Topic] = {}  # where each VO's observations are published
        self._vo_class: dict[Iri, str] = {}
        self._class_domains: dict[str, set[str]] = {}
        self._cvo_ids: list[Iri] = []
        self._mashups: dict[str, Resolution] = {}
        self._med_pending: list[RelationalRecord] = []
        self._last_batch: list[RelationalRecord] = []
        # what each medical batch synchronized into the central vitals graph
        self._vitals_window: deque[Sequence[Triple]] = deque()
        self._resolution = {
            "single-domain": 0,
            "mashup-generated": 0,
            "mashup-cache-hit": 0,
            "denied": 0,
            "failed": 0,
        }
        self._rule_firings: dict[str, int] = {}
        self._alerts: dict[str, int] = {}
        self._request_records: list[dict] = []
        self._late_records: deque[dict] | None = None  # set when run() returns
        self._fault_log: list[dict] = []
        self._holdout_accuracy: dict[str, float] = {}
        self._analyzer_algorithms: dict[str, str] = {}
        self._boot_ids: set[str] = set()
        self._request_seq = 0
        self._ticks_run = 0
        self._booted = False

    # --- boot ----------------------------------------------------------

    def boot(self) -> "Hub":
        """Wire every subsystem; a scripted fault on a kind that no service
        template or instance has raises MalformedScenario first."""
        if self._booted:
            return self
        services.load_default_services(self.repo)
        for fault in self.config.faults:
            if self.repo.template_for_kind(fault.kind) is None and not self.repo.of_kind(fault.kind):
                raise MalformedScenario(
                    f"faults: no service template or instance has kind {fault.kind!r}"
                )
        self._booted = True
        self._register_users()
        self._register_objects()
        self._register_cvos()
        self.broker.subscribe("hub-ingest", "obs/#", qos=0, callback=self._on_observation)
        self.broker.subscribe("hub-alerts", "cvo/#", qos=1, callback=self._on_alert)
        self._register_handlers()
        for kind in sorted(self._flow_kinds()):
            if not self.repo.discover(kind):
                self.repo.instantiate(kind)
        self._boot_ids = {d.id for d in self.repo.descriptors()}
        if self.config.duration_ticks > 0:
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
                        id=vocab.vo_iri(domain, sensor, name),
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
                    self._vo_topic[vo.id] = Topic.parse(f"obs/{domain}/{sensor}/{name}")
                    self._vo_class[vo.id] = cls
                    self._class_domains.setdefault(cls, set()).add(domain)

    def _register_cvos(self) -> None:
        """Two bundled composites watch the first user's data streams."""
        first = sorted(self.config.users)[0]
        s, v = Variable("s"), Variable("v")
        self._add_cvo(
            "home-comfort",
            (
                vocab.vo_iri(SMART_HOME, "motion", first),
                vocab.vo_iri(SMART_HOME, "luminosity", first),
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
                vocab.vo_iri(MEDICAL, "hr", first),
                vocab.vo_iri(MEDICAL, "systolic", first),
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
        for kind, (name, key) in REASONERS.items():
            self.repo.register_handler(kind, partial(self._h_reason, name, key))
        self.repo.register_handler("analytics.location", self._h_analytics_location)
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
        try:
            self.registry.ingest(delivery.payload)
        except StaleSequence:
            pass  # counted by the registry as stale_dropped

    def _on_alert(self, delivery: Delivery) -> None:
        topic = str(delivery.topic)
        self._alerts[topic] = self._alerts.get(topic, 0) + 1

    def _publish_event(self, topic: str, payload: Mapping) -> None:
        self.broker.publish(Message(Topic.parse(topic), payload, qos=1), publisher="cvo")

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
        self._late_records = deque(maxlen=REQUEST_RECORD_TAIL)

    def _step(
        self,
        tick: int,
        faults: Sequence[FaultEvent],
        requests: Sequence[ScriptedRequest],
    ) -> None:
        cfg = self.config
        wall = self.schedule.wall_ms(tick)
        for domain in self._domain_order:
            observations, records = self.simulators[domain].emit(tick)
            for obs in observations:
                self.broker.publish(Message(self._vo_topic[obs.source], obs), publisher=domain)
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
            self.repo.remove_template(fault.kind)
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
        synced = self._sync_vitals(self.med_interop, records, CENTRAL_VITALS_GRAPH, wall)
        # an empty or invalid batch takes a slot too, so the window is always
        # VITALS_WINDOW_BATCHES batch intervals long
        self._vitals_window.append(synced or ())
        if len(self._vitals_window) > VITALS_WINDOW_BATCHES:
            evicted = self._vitals_window.popleft()
            self.med_interop.synchronizer.evict(CENTRAL_VITALS_GRAPH, evicted)

    def _sync_vitals(
        self,
        facade: InteropServices,
        records: Sequence[RelationalRecord],
        graph: Iri,
        wall: int,
    ) -> list[Triple] | None:
        """Translate, annotate, align and validate relational vitals rows,
        and synchronize them into `graph` when valid; returns the triples
        synchronized, or None for an invalid batch."""
        cfg = self.mappings
        triples = facade.translate(records, cfg.translations["medical-vitals"])
        annotated = facade.annotate(triples, cfg.ontologies["medical"])
        aligned = facade.align(annotated, cfg.alignments["medical-to-hub"])
        if not facade.validate(aligned, cfg.ontologies["hub-central"]).valid:
            return None
        facade.synchronize(aligned, graph, wall)
        return aligned

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
            return Resolution("single-domain", (covering[0],))
        domains = tuple(sorted(set().union(*per_class)))
        signature = mashup_signature(capability, classes, domains)
        cached = self._mashups.get(signature)
        if cached is not None:
            return replace(cached, path="mashup-cache-hit")
        return self._generate_mashup(classes, domains, signature, tick)

    def _generate_mashup(
        self,
        classes: Sequence[str],
        domains: Sequence[str],
        signature: str,
        tick: int,
    ) -> Resolution:
        graph = vocab.graph_iri(f"mashup:{signature[:12]}")
        wall = self.schedule.wall_ms(tick)
        hub_ctx = self.mappings.ontologies["hub-central"]
        wanted = set(classes)
        contributors = sorted(
            (vo for vo in self.registry.vos() if self._vo_class.get(vo.id) in wanted),
            key=lambda vo: vo.id.value,
        )
        for domain in sorted(domains):
            if domain == MEDICAL:
                self._sync_vitals(self.interop, self._last_batch, graph, wall)
            descriptions: list[Triple] = []
            for vo in contributors:
                if vo.domain == domain:
                    descriptions.extend(self.store.triples(vo.description_graph))
            annotated = self.interop.annotate(descriptions, hub_ctx)
            if self.interop.validate(annotated, hub_ctx).valid:
                self.interop.synchronize(annotated, graph, wall)
        mashup = Resolution("mashup-generated", tuple(sorted(domains)), signature, graph)
        self._mashups[signature] = mashup
        return mashup

    # --- request handling ----------------------------------------------

    def submit_request(self, capability: str, user: str, tick: int | None = None) -> dict:
        """Serve one request at `tick` (default: the end of the run so far);
        a tick outside the run raises TickOutOfRange and records nothing."""
        if tick is None:
            tick = self._ticks_run
        else:
            self.config.check_tick(tick)
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
        try:
            decision = services.evaluate_request(capability, model, self.repo)
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
            error = result.step_outputs[result.failed_step]["error"]
            return self._finish(
                record, "failed", reason=error, failedStep=result.failed_step
            )
        terminal = flow.topological_order()[-1].step_id
        record["result"] = dict(result.step_outputs.get(terminal, {}))
        return self._finish(record, "completed", bucket=resolution.path)

    def _finish(
        self, record: dict, outcome: str, bucket: str | None = None, **extra
    ) -> dict:
        record["outcome"] = outcome
        record.update(extra)
        counted = bucket or outcome
        if counted in self._resolution:
            self._resolution[counted] += 1
        if self._late_records is None:
            self._request_records.append(record)
        else:
            self._late_records.append(record)
        return record

    # --- capability handlers --------------------------------------------

    def _h_reason(self, name: str, key: str, descriptor, inputs: Mapping) -> Mapping:
        """Run reasoner `name` over the request's window; `key` carries the
        derived fact's local name or lexical form, or "none"."""
        wall = int(inputs["wall"])
        window = (wall - int(inputs.get("windowMinutes") or 30) * MINUTE_MS, wall)
        facts = self.reasoning.run(name, vocab.user_iri(str(inputs["user"])), window)
        predicate = ReasoningService.FACT_PREDICATE[name]
        for t in facts:
            if t.predicate == predicate:
                if isinstance(t.object, Iri):
                    return {key: t.object.value.rsplit(":", 1)[-1]}
                return {key: t.object.lexical}
        return {key: "none"}

    def _current_activity(self, user: str) -> str:
        uid = vocab.user_iri(user)
        graph = self.reasoning.output_graph("activity")
        for t in self.store.triples(graph):
            if t.subject == uid and t.predicate == vocab.CURRENT_ACTIVITY:
                return t.object.value.rsplit(":", 1)[-1]
        return "none"

    def _h_analytics_location(self, descriptor, inputs: Mapping) -> Mapping:
        """Predict the user's zone from the beacon readings retained up to
        the request's wall time."""
        uid = vocab.user_iri(str(inputs["user"]))
        wall = int(inputs["wall"])
        events = [
            (o.timestamp, o.value.lexical)
            for o in self.registry.readings(uid, vocab.ZONE_READING, 0, wall)
        ]
        prediction = self.analytics.predict_for(
            "location", build_location_features(events, wall)
        )
        out = {"zone": prediction.label, "model": prediction.model_id}
        if inputs.get("zone") is not None:
            out["reasonedZone"] = str(inputs["zone"])
        return out

    def _h_analytics_physio(self, descriptor, inputs: Mapping) -> Mapping:
        """Predict the user's physio status from the vitals retained up to
        the request's wall time."""
        user = str(inputs["user"])
        uid = vocab.user_iri(user)
        wall = int(inputs["wall"])
        readings = self.registry.readings
        hr = [(o.timestamp, float(o.value.lexical)) for o in readings(uid, vocab.HEART_RATE, 0, wall)]
        systolic = [(o.timestamp, float(o.value.lexical)) for o in readings(uid, vocab.SYSTOLIC, 0, wall)]
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
        rows = [dict(zip(names, row)) for row in result.serialized]
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
        counts = self.registry.counts()
        medical = dict(self.med_interop.counters)
        return {
            "scenario": {
                "seed": self.config.seed,
                "durationTicks": self.config.duration_ticks,
                "noiseRate": self.config.noise_rate,
                "users": dict(sorted(self.config.users.items())),
            },
            "resolution": {**self._resolution, "cacheHitRatio": ratio},
            "requests": [*self._request_records, *(self._late_records or ())],
            "faults": list(self._fault_log),
            "objects": {
                "virtual": len(self.registry.vos()),
                "composite": len(self.registry.cvos()),
                **counts,
                "ingestRejected": counts["stale_dropped"],
            },
            "ruleFirings": dict(sorted(self._rule_firings.items())),
            "alerts": dict(sorted(self._alerts.items())),
            "inference": {
                "runs": dict(sorted(self.reasoning.counters.items())),
                "derivedFacts": self.reasoning.derived_facts,
            },
            "analytics": analytics,
            "interop": {
                "hub": dict(sorted(self.interop.counters.items())),
                "medical": dict(sorted(medical.items())),
            },
            "validation": {
                "batches": medical["validate"],
                "valid": medical["synchronize"],
                "invalid": medical["validate"] - medical["synchronize"],
            },
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
