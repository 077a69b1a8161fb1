"""Virtual objects and composite virtual objects.

A VirtualObject mirrors one physical device: its observations land as triples
in a per-VO data graph.  A CompositeVO groups member VOs and carries an
ordered rule list; each evaluation pass matches rule conditions against a
snapshot of the member data graphs and publishes the rule's message once
per distinct binding.  Data graphs keep only the most recent observations per VO: each
VO's retention window keeps the two triples every retained observation
wrote, with a reference count per triple, so ingesting an observation and
evicting the oldest cost O(1) and eviction removes the very triples the
ingest built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    Plan,
    Term,
    TriplePattern,
    Triple,
    Variable,
    integer,
    ordered_distinct,
    pattern_variables,
    solve,
)

DOMAINS = ("smart-home", "medical-facility", "smart-office")

VO_CLASS = vocab.class_iri("VirtualObject")
CVO_CLASS = vocab.class_iri("CompositeVirtualObject")

RETENTION_WINDOW = 100


def data_graph_of(vo_id: Iri) -> Iri:
    return Iri(vo_id + "#data")


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


_setattr = object.__setattr__  # how a frozen dataclass sets its own fields


@dataclass(frozen=True, slots=True)
class Observation:
    """One reading of a VO, as the bus carries it.  Slotted with a
    written-out `__init__`, as every observation builds one."""

    source: Iri
    timestamp: int  # milliseconds since epoch
    value: Literal
    sequence: int

    def __init__(self, source: Iri, timestamp: int, value: Literal, sequence: int):
        _setattr(self, "source", source)
        _setattr(self, "timestamp", timestamp)
        _setattr(self, "value", value)
        _setattr(self, "sequence", sequence)

    def __reduce__(self):
        return Observation, (self.source, self.timestamp, self.value, self.sequence)


# --- rules ------------------------------------------------------------------

@dataclass(frozen=True)
class PublishMessage:
    topic: str
    payload: Mapping[str, object]


_PLACEHOLDER_PREFIX = "{?"


def _template_variables(value) -> set[Variable]:
    """Variables referenced anywhere in an action's topic or payload."""
    found: set[Variable] = set()
    if type(value) is str:  # an Iri is a term, not a template
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
    if type(value) is str:  # an Iri is a term, not a template
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
    action: PublishMessage
    plan: Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bound = set(self.condition_variables())
        for f in self.filters:
            if f.var not in bound:
                raise ActionFailure(self.id, f"filter variable {f.var} unbound")
        used = _template_variables([self.action.topic, dict(self.action.payload)])
        loose = used - bound
        if loose:
            names = ", ".join(sorted(f"?{v.name}" for v in loose))
            raise ActionFailure(self.id, f"action references unbound {names}")
        object.__setattr__(self, "plan", Plan(self.condition, self.filters))

    def condition_variables(self) -> tuple[Variable, ...]:
        return pattern_variables(self.condition)


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

@dataclass(slots=True)
class _Window:
    """One VO's retention window: its data graph, the retained observations
    oldest first, each with the value and timestamp triples it wrote, how
    many retained observations wrote each of those triples, and the
    sequence and timestamp of the last observation accepted.

    `refs` maps each triple to `[held, count]`, where `held` is the first
    equal triple ingested: the data graph and the buffer keep that object,
    so eviction finds it by identity, without calling `Triple.__eq__`, and
    a repeated value is compared once and not written to the store again."""

    graph: Iri
    buffer: deque[tuple[Observation, Triple, Triple]] = field(default_factory=deque)
    refs: dict[Triple, list] = field(default_factory=dict)
    last_seq: int | None = None
    last_ts: int | None = None


class ObjectRegistry:
    """Central repository of VOs, CVOs and user models.

    Ingestion enforces per-source sequence monotonicity and the retention
    window; rule evaluation reads a snapshot of the member data graphs.
    Each VO's window keeps reference counts on the triples its observations
    wrote: an evicted observation's triple leaves the data graph only when
    no retained observation wrote it too, and neither ingest nor eviction
    scans the window.  The registry takes no lock: the gateway makes every
    call that reaches it from its one serving thread.
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
        self._windows: dict[Iri, _Window] = {}
        self._counts = {"observations": 0, "evicted": 0, "stale_dropped": 0}

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
        if vo.id in self._vos or vo.id in self._cvos:
            raise DuplicateId(f"object id {vo.id} already registered")
        if not self.store.contains(
            vo.description_graph, Triple(vo.id, vocab.TYPE, VO_CLASS)
        ):
            raise MissingDescription(
                f"description graph {vo.description_graph} lacks the type triple"
            )
        self._vos[vo.id] = vo
        self._windows[vo.id] = _Window(data_graph_of(vo.id))
        return vo.id

    def register_cvo(self, cvo: CompositeVO) -> Iri:
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
        if user.user_id in self._users:
            raise DuplicateId(f"user {user.user_id} already registered")
        if not self.store.has_graph(user.profile_graph):
            raise MissingDescription(
                f"profile graph {user.profile_graph} does not exist"
            )
        self._users[user.user_id] = user
        return user.user_id

    def vo(self, vo_id: Iri) -> VirtualObject:
        try:
            return self._vos[vo_id]
        except KeyError:
            raise UnknownSource(f"no VO registered as {vo_id}") from None

    def cvo(self, cvo_id: Iri) -> CompositeVO:
        try:
            return self._cvos[cvo_id]
        except KeyError:
            raise UnknownSource(f"no CVO registered as {cvo_id}") from None

    def user(self, user_id: Iri) -> UserModel:
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownSource(f"no user registered as {user_id}") from None

    def vos(self) -> list[VirtualObject]:
        return [self._vos[k] for k in sorted(self._vos)]

    def cvos(self) -> list[CompositeVO]:
        return [self._cvos[k] for k in sorted(self._cvos)]

    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    # --- ingestion ------------------------------------------------------

    def ingest(self, obs: Observation) -> int:
        """Materialize one observation as two triples in the VO data graph."""
        vo = self._vos.get(obs.source)
        if vo is None:
            raise UnknownSource(f"observation from unregistered source {obs.source}")
        window = self._windows[obs.source]
        last = window.last_seq
        if last is not None and obs.sequence <= last:
            self._counts["stale_dropped"] += 1
            raise StaleSequence(
                f"sequence {obs.sequence} not above last seen {last} for {obs.source}"
            )
        last_ts = window.last_ts
        if last_ts is not None and obs.timestamp < last_ts:
            self._counts["stale_dropped"] += 1
            raise StaleSequence(
                f"timestamp {obs.timestamp} regresses below {last_ts} for {obs.source}"
            )
        window.last_seq = obs.sequence
        window.last_ts = obs.timestamp

        refs = window.refs
        held = []
        added = []
        for t in (
            Triple(obs.source, vo.observed_property, obs.value),
            Triple(obs.source, vocab.OBSERVED_AT, integer(obs.timestamp)),
        ):
            ref = refs.get(t)
            if ref is None:
                refs[t] = ref = [t, 0]
                added.append(t)
            ref[1] += 1
            held.append(ref[0])
        window.buffer.append((obs, *held))
        if added:
            self.store.insert_all(window.graph, added)
        self._counts["observations"] += 1

        released = []
        while len(window.buffer) > self.retention:
            for t in window.buffer.popleft()[1:]:  # the evicted observation's triples
                ref = refs[t]
                ref[1] -= 1
                if not ref[1]:
                    del refs[t]
                    released.append(t)
            self._counts["evicted"] += 1
        if released:
            self.store.remove_all(window.graph, released)
        return 2

    def buffered(self, vo_id: Iri) -> list[Observation]:
        window = self._windows.get(vo_id)
        return [obs for obs, _, _ in window.buffer] if window else []

    def last_sequence(self, vo_id: Iri) -> int | None:
        window = self._windows.get(vo_id)
        return window.last_seq if window else None

    # --- rule evaluation ------------------------------------------------

    def evaluate_cvo_rules(
        self,
        cvo_id: Iri,
        publisher: Callable[[str, Mapping], None] | None = None,
    ) -> list[FiredRule]:
        """Run every rule of the CVO once over the current member data."""
        cvo = self.cvo(cvo_id)
        index = self.store.snapshot([data_graph_of(m) for m in cvo.members])
        fired: list[FiredRule] = []
        for rule in cvo.rules:
            rows = solve(rule.plan, [index] * len(rule.condition))
            bindings = [rule.plan.binding(row) for _, row in ordered_distinct(rows)]
            if not bindings:
                continue
            try:
                if publisher is None:
                    raise ActionFailure(rule.id, "no message bus attached")
                action = rule.action
                for b in bindings:
                    publisher(_substitute(action.topic, b), _substitute(dict(action.payload), b))
                outcome, ok = f"published {len(bindings)}", True
            except Exception as exc:
                outcome, ok = f"failed: {exc}", False
            fired.append(FiredRule(rule.id, tuple(bindings), outcome, ok))
        return fired
