"""Virtual objects and composite virtual objects.

A VirtualObject mirrors one physical device: its observations land as triples
in a per-VO data graph.  A CompositeVO groups member VOs and carries an
ordered rule list; each evaluation pass matches rule conditions against a
snapshot of the member data graphs and runs the action once per distinct
binding.  Data graphs keep only the most recent observations per VO.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import vocab
from .errors import (
    ActionFailure,
    DuplicateId,
    MissingDescription,
    StaleSequence,
    UnknownSource,
)
from .semantic import (
    Filter,
    GraphStore,
    Iri,
    Literal,
    Term,
    TriplePattern,
    Triple,
    Variable,
    integer,
    serialize_term,
    solve,
)

DOMAINS = ("smart-home", "medical-facility", "smart-office")

VO_CLASS = vocab.class_iri("VirtualObject")
CVO_CLASS = vocab.class_iri("CompositeVirtualObject")

RETENTION_WINDOW = 100


def data_graph_of(vo_id: Iri) -> Iri:
    return Iri(vo_id.value + "#data")


@dataclass(frozen=True)
class VirtualObject:
    id: Iri
    domain: str
    kind: str  # sensor | actuator
    description_graph: Iri
    observed_property: Iri
    unit: str

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise UnknownSource(f"unknown domain {self.domain!r}")
        if self.kind not in ("sensor", "actuator"):
            raise UnknownSource(f"unknown VO kind {self.kind!r}")


@dataclass(frozen=True)
class Observation:
    source: Iri
    timestamp: int  # milliseconds since epoch
    value: Literal
    sequence: int


# --- rules ------------------------------------------------------------------

@dataclass(frozen=True)
class AssertTriples:
    templates: tuple[tuple[object, object, object], ...]  # pattern-term triples


@dataclass(frozen=True)
class PublishMessage:
    topic: str
    payload: Mapping[str, object]


@dataclass(frozen=True)
class InvokeService:
    kind: str
    params: Mapping[str, object]


Action = AssertTriples | PublishMessage | InvokeService

_PLACEHOLDER_PREFIX = "{?"


def _template_variables(value) -> set[Variable]:
    """Variables referenced anywhere in an action payload/params value."""
    found: set[Variable] = set()
    if isinstance(value, Variable):
        found.add(value)
    elif isinstance(value, str):
        i = 0
        while (i := value.find(_PLACEHOLDER_PREFIX, i)) != -1:
            end = value.find("}", i)
            if end == -1:
                break
            found.add(Variable(value[i + 2 : end]))
            i = end + 1
    elif isinstance(value, Mapping):
        for v in value.values():
            found |= _template_variables(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            found |= _template_variables(v)
    return found


def _substitute(value, binding: Mapping[Variable, Term]):
    """Instantiate `{?var}` placeholders in strings and nested containers."""
    if isinstance(value, str):
        out = value
        for var, term in binding.items():
            token = "{?" + var.name + "}"
            if token in out:
                text = term.value if isinstance(term, Iri) else term.lexical
                out = out.replace(token, text)
        return out
    if isinstance(value, Mapping):
        return {k: _substitute(v, binding) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_substitute(v, binding) for v in value]
    return value


@dataclass(frozen=True)
class Rule:
    id: str
    condition: tuple[TriplePattern, ...]
    filters: tuple[Filter, ...]
    action: Action

    def __post_init__(self):
        bound: set[Variable] = set()
        for p in self.condition:
            bound.update(p.variables())
        for f in self.filters:
            if f.var not in bound:
                raise ActionFailure(self.id, f"filter variable {f.var} unbound")
        used: set[Variable] = set()
        if isinstance(self.action, AssertTriples):
            for s, p, o in self.action.templates:
                for term in (s, p, o):
                    if isinstance(term, Variable):
                        used.add(term)
        elif isinstance(self.action, PublishMessage):
            used |= _template_variables(self.action.topic)
            used |= _template_variables(dict(self.action.payload))
        else:
            used |= _template_variables(dict(self.action.params))
        loose = used - bound
        if loose:
            names = ", ".join(sorted(f"?{v.name}" for v in loose))
            raise ActionFailure(self.id, f"action references unbound {names}")

    def condition_variables(self) -> tuple[Variable, ...]:
        seen: dict[Variable, None] = {}
        for p in self.condition:
            for v in p.variables():
                seen.setdefault(v)
        return tuple(seen)


@dataclass(frozen=True)
class CompositeVO:
    id: Iri
    members: tuple[Iri, ...]
    rules: tuple[Rule, ...]
    description_graph: Iri

    def __post_init__(self):
        if not self.members:
            raise MissingDescription(f"CVO {self.id} has no members")


@dataclass(frozen=True)
class UserModel:
    user_id: Iri
    profile_graph: Iri
    preferences: Mapping[str, str]
    access_level: int

    def __post_init__(self):
        if not 0 <= self.access_level <= 3:
            raise MissingDescription(
                f"access level {self.access_level} outside 0..3"
            )


@dataclass(frozen=True)
class FiredRule:
    rule_id: str
    bindings: tuple[Mapping[Variable, Term], ...]
    action_outcome: str
    ok: bool = True


# --- registry ---------------------------------------------------------------

class ObjectRegistry:
    """Central repository of VOs, CVOs and user models.

    Ingestion enforces per-source sequence monotonicity and the retention
    window; rule evaluation reads a snapshot, so concurrent ingestion only
    affects the next pass.
    """

    def __init__(
        self,
        store: GraphStore,
        retention: int = RETENTION_WINDOW,
    ):
        self.store = store
        self.retention = retention
        self._vos: dict[Iri, VirtualObject] = {}
        self._cvos: dict[Iri, CompositeVO] = {}
        self._users: dict[Iri, UserModel] = {}
        self._buffers: dict[Iri, deque[Observation]] = {}
        self._last_seq: dict[Iri, int] = {}
        self._last_ts: dict[Iri, int] = {}
        self._counts = {"observations": 0, "evicted": 0, "stale_dropped": 0}
        self._lock = threading.RLock()

    # --- registration ---------------------------------------------------

    def describe_vo(self, vo: VirtualObject, extra: Sequence[Triple] = ()) -> None:
        """Write the standard description triples for a VO."""
        g = vo.description_graph
        self.store.insert(g, Triple(vo.id, vocab.TYPE, VO_CLASS))
        self.store.insert(
            g, Triple(vo.id, Iri(vocab.NS + "observedProperty"), vo.observed_property)
        )
        self.store.insert(g, Triple(vo.id, Iri(vocab.NS + "unit"), Literal(vo.unit)))
        self.store.insert(g, Triple(vo.id, Iri(vocab.NS + "domain"), Literal(vo.domain)))
        for t in extra:
            self.store.insert(g, t)

    def register_vo(self, vo: VirtualObject) -> Iri:
        with self._lock:
            if vo.id in self._vos or vo.id in self._cvos:
                raise DuplicateId(f"object id {vo.id} already registered")
            if not self.store.contains(
                vo.description_graph, Triple(vo.id, vocab.TYPE, VO_CLASS)
            ):
                raise MissingDescription(
                    f"description graph {vo.description_graph} lacks the type triple"
                )
            self._vos[vo.id] = vo
            self._buffers[vo.id] = deque()
            return vo.id

    def register_cvo(self, cvo: CompositeVO) -> Iri:
        with self._lock:
            if cvo.id in self._cvos or cvo.id in self._vos:
                raise DuplicateId(f"object id {cvo.id} already registered")
            for member in cvo.members:
                if member not in self._vos:
                    raise UnknownSource(f"CVO member {member} is not a registered VO")
            if not self.store.contains(
                cvo.description_graph, Triple(cvo.id, vocab.TYPE, CVO_CLASS)
            ):
                raise MissingDescription(
                    f"description graph {cvo.description_graph} lacks the type triple"
                )
            self._cvos[cvo.id] = cvo
            return cvo.id

    def register_user(self, user: UserModel) -> Iri:
        with self._lock:
            if user.user_id in self._users:
                raise DuplicateId(f"user {user.user_id} already registered")
            if not self.store.has_graph(user.profile_graph):
                raise MissingDescription(
                    f"profile graph {user.profile_graph} does not exist"
                )
            self._users[user.user_id] = user
            return user.user_id

    def vo(self, vo_id: Iri) -> VirtualObject:
        with self._lock:
            try:
                return self._vos[vo_id]
            except KeyError:
                raise UnknownSource(f"no VO registered as {vo_id}") from None

    def cvo(self, cvo_id: Iri) -> CompositeVO:
        with self._lock:
            try:
                return self._cvos[cvo_id]
            except KeyError:
                raise UnknownSource(f"no CVO registered as {cvo_id}") from None

    def user(self, user_id: Iri) -> UserModel:
        with self._lock:
            try:
                return self._users[user_id]
            except KeyError:
                raise UnknownSource(f"no user registered as {user_id}") from None

    def vos(self) -> list[VirtualObject]:
        with self._lock:
            return [self._vos[k] for k in sorted(self._vos)]

    def cvos(self) -> list[CompositeVO]:
        with self._lock:
            return [self._cvos[k] for k in sorted(self._cvos)]

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    # --- ingestion ------------------------------------------------------

    def ingest(self, obs: Observation) -> int:
        """Materialize one observation as two triples in the VO data graph."""
        with self._lock:
            vo = self._vos.get(obs.source)
            if vo is None:
                raise UnknownSource(f"observation from unregistered source {obs.source}")
            last = self._last_seq.get(obs.source)
            if last is not None and obs.sequence <= last:
                self._counts["stale_dropped"] += 1
                raise StaleSequence(
                    f"sequence {obs.sequence} not above last seen {last} for {obs.source}"
                )
            last_ts = self._last_ts.get(obs.source)
            if last_ts is not None and obs.timestamp < last_ts:
                self._counts["stale_dropped"] += 1
                raise StaleSequence(
                    f"timestamp {obs.timestamp} regresses below {last_ts} for {obs.source}"
                )
            self._last_seq[obs.source] = obs.sequence
            self._last_ts[obs.source] = obs.timestamp

            graph = data_graph_of(obs.source)
            buffer = self._buffers[obs.source]
            buffer.append(obs)
            self.store.insert(graph, Triple(obs.source, vo.observed_property, obs.value))
            self.store.insert(
                graph, Triple(obs.source, vocab.OBSERVED_AT, integer(obs.timestamp))
            )
            self._counts["observations"] += 1

            evicted: list[Observation] = []
            while len(buffer) > self.retention:
                evicted.append(buffer.popleft())
            if evicted:
                self._retire(vo, graph, buffer, evicted)
            return 2

    def _retire(
        self,
        vo: VirtualObject,
        graph: Iri,
        buffer: deque[Observation],
        evicted: list[Observation],
    ) -> None:
        live_values = {o.value for o in buffer}
        live_times = {o.timestamp for o in buffer}
        for old in evicted:
            if old.value not in live_values:
                self.store.remove(graph, Triple(vo.id, vo.observed_property, old.value))
            if old.timestamp not in live_times:
                self.store.remove(
                    graph, Triple(vo.id, vocab.OBSERVED_AT, integer(old.timestamp))
                )
            self._counts["evicted"] += 1

    def buffered(self, vo_id: Iri) -> list[Observation]:
        with self._lock:
            return list(self._buffers.get(vo_id, ()))

    def last_sequence(self, vo_id: Iri) -> int | None:
        with self._lock:
            return self._last_seq.get(vo_id)

    # --- rule evaluation ------------------------------------------------

    def evaluate_cvo_rules(
        self,
        cvo_id: Iri,
        publisher: Callable[[str, Mapping], None] | None = None,
        invoker: Callable[[str, Mapping], object] | None = None,
    ) -> list[FiredRule]:
        """Run every rule of the CVO once over the current member data."""
        cvo = self.cvo(cvo_id)
        index = self.store.snapshot([data_graph_of(m) for m in cvo.members])
        fired: list[FiredRule] = []
        for rule in cvo.rules:
            variables = rule.condition_variables()
            raw = solve(rule.condition, [index] * len(rule.condition), rule.filters)
            distinct: dict[tuple[Term, ...], dict[Variable, Term]] = {}
            for b in raw:
                key = tuple(b[v] for v in variables)
                distinct.setdefault(key, b)
            bindings = [
                distinct[k]
                for k in sorted(
                    distinct, key=lambda row: tuple(serialize_term(t) for t in row)
                )
            ]
            if not bindings:
                continue
            try:
                outcome = self._run_action(cvo, rule, bindings, publisher, invoker)
                fired.append(FiredRule(rule.id, tuple(bindings), outcome, True))
            except Exception as exc:
                fired.append(
                    FiredRule(rule.id, tuple(bindings), f"failed: {exc}", False)
                )
        return fired

    def _run_action(
        self,
        cvo: CompositeVO,
        rule: Rule,
        bindings: Sequence[Mapping[Variable, Term]],
        publisher,
        invoker,
    ) -> str:
        action = rule.action
        if isinstance(action, AssertTriples):
            added = 0
            for b in bindings:
                for s, p, o in action.templates:
                    triple = Triple(
                        _resolve_term(s, b), _resolve_term(p, b), _resolve_term(o, b)
                    )
                    if self.store.insert(cvo.description_graph, triple):
                        added += 1
            return f"asserted {added} new"
        if isinstance(action, PublishMessage):
            if publisher is None:
                raise ActionFailure(rule.id, "no message bus attached")
            for b in bindings:
                publisher(
                    _substitute(action.topic, b), _substitute(dict(action.payload), b)
                )
            return f"published {len(bindings)}"
        if invoker is None:
            raise ActionFailure(rule.id, "no service invoker attached")
        for b in bindings:
            invoker(action.kind, _substitute(dict(action.params), b))
        return f"invoked {len(bindings)}"


def _resolve_term(t, binding: Mapping[Variable, Term]) -> Term:
    if isinstance(t, Variable):
        return binding[t]
    return t
