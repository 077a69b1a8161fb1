"""Topic-based pub/sub broker with wildcard filters and QoS 0/1.

The broker keeps one stop-and-wait outbox per subscription: the head message
is in flight until acked (or out of retries), so delivery order per
subscription is exactly publish order.  Time is simulated — `advance()` moves
the clock and processes due redeliveries — which makes the fault-injection
tests deterministic and instant.

Faults are opt-in: a seeded injector can drop delivery attempts and acks.
QoS 0 takes one attempt, QoS 1 retries on a fixed interval and dead-letters
to ``$dead/<topic>`` when the retry budget runs out.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable

from .errors import BrokerDown, InvalidFilter

RETRY_INTERVAL_MS = 100
MAX_RETRIES = 10

DEAD_LETTER_ROOT = "$dead"


# --- topics and filters -----------------------------------------------------


@dataclass(frozen=True)
class Topic:
    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidFilter("topic needs at least one segment")
        for seg in self.segments:
            if "/" in seg or seg == "":
                raise InvalidFilter(f"bad topic segment {seg!r}")
            if seg in ("+", "#"):
                raise InvalidFilter("publish topics cannot contain wildcards")

    def __str__(self):
        return "/".join(self.segments)

    @classmethod
    def parse(cls, text: str) -> "Topic":
        return cls(tuple(text.split("/")))


@dataclass(frozen=True)
class TopicFilter:
    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidFilter("filter needs at least one segment")
        for i, seg in enumerate(self.segments):
            if "/" in seg or seg == "":
                raise InvalidFilter(f"bad filter segment {seg!r}")
            if seg == "#" and i != len(self.segments) - 1:
                raise InvalidFilter("'#' is only allowed as the final segment")

    def __str__(self):
        return "/".join(self.segments)

    @classmethod
    def parse(cls, text: str) -> "TopicFilter":
        return cls(tuple(text.split("/")))

    def matches(self, topic: Topic) -> bool:
        # wildcard-leading filters never match $-prefixed system topics
        if self.segments[0] in ("+", "#") and topic.segments[0].startswith("$"):
            return False
        f, t = self.segments, topic.segments
        for i, seg in enumerate(f):
            if seg == "#":
                return True  # any suffix, including empty
            if i >= len(t):
                return False
            if seg != "+" and seg != t[i]:
                return False
        return len(t) == len(f)


# --- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    topic: Topic
    payload: bytes
    qos: int = 0
    message_id: int | None = None

    def __post_init__(self):
        if self.qos not in (0, 1):
            raise InvalidFilter(f"unsupported qos {self.qos}")


@dataclass(frozen=True)
class Delivery:
    subscription_id: int
    topic: Topic
    payload: bytes
    qos: int
    message_id: int | None
    duplicate: bool
    publisher: str


@dataclass
class DeliveryReport:
    matched_subscribers: int
    acked: int


class FaultInjector:
    """Seeded drop decisions for delivery attempts and acks."""

    def __init__(self, seed="faults", delivery_drop_rate=0.0, ack_drop_rate=0.0):
        self._rng = random.Random(seed)
        self.delivery_drop_rate = delivery_drop_rate
        self.ack_drop_rate = ack_drop_rate

    def drop_delivery(self) -> bool:
        return self.delivery_drop_rate > 0 and self._rng.random() < self.delivery_drop_rate

    def drop_ack(self) -> bool:
        return self.ack_drop_rate > 0 and self._rng.random() < self.ack_drop_rate


@dataclass
class _Pending:
    message: Message
    publisher: str
    attempts: int = 0
    next_attempt_ms: int = 0


@dataclass
class _Subscription:
    sid: int
    client: str
    filter: TopicFilter
    qos: int
    callback: Callable[[Delivery], None]
    auto_ack: bool
    outbox: list[_Pending] = field(default_factory=list)


class Broker:
    def __init__(
        self,
        faults: FaultInjector | None = None,
        retry_interval_ms: int = RETRY_INTERVAL_MS,
        max_retries: int = MAX_RETRIES,
    ):
        self.faults = faults or FaultInjector()
        self.retry_interval_ms = retry_interval_ms
        self.max_retries = max_retries
        self.now_ms = 0
        self._subscriptions: dict[int, _Subscription] = {}
        self._next_sid = 1
        self._message_ids: dict[str, int] = {}
        self._running = True
        self._lock = threading.RLock()
        self.stats = {
            "published": 0,
            "delivered": 0,
            "acked": 0,
            "retries": 0,
            "dead_lettered": 0,
            "dropped_deliveries": 0,
            "dropped_acks": 0,
        }

    # --- lifecycle ------------------------------------------------------

    def shutdown(self):
        with self._lock:
            self._running = False

    def _check_running(self):
        if not self._running:
            raise BrokerDown("broker has been shut down")

    # --- subscriptions --------------------------------------------------

    def subscribe(
        self,
        client: str,
        topic_filter: TopicFilter | str,
        qos: int = 0,
        callback: Callable[[Delivery], None] | None = None,
        auto_ack: bool = True,
    ) -> int:
        if isinstance(topic_filter, str):
            topic_filter = TopicFilter.parse(topic_filter)
        if qos not in (0, 1):
            raise InvalidFilter(f"unsupported qos {qos}")
        with self._lock:
            self._check_running()
            for sub in self._subscriptions.values():
                if sub.client == client and sub.filter == topic_filter:
                    sub.qos = qos  # re-subscribe updates qos in place
                    if callback is not None:
                        sub.callback = callback
                    return sub.sid
            sid = self._next_sid
            self._next_sid += 1
            self._subscriptions[sid] = _Subscription(
                sid, client, topic_filter, qos, callback or (lambda d: None), auto_ack
            )
            return sid

    def unsubscribe(self, sid: int) -> bool:
        with self._lock:
            return self._subscriptions.pop(sid, None) is not None

    def subscriptions(self) -> list[tuple[int, str, str, int]]:
        with self._lock:
            return [
                (s.sid, s.client, str(s.filter), s.qos)
                for s in self._subscriptions.values()
            ]

    # --- publishing -----------------------------------------------------

    def publish(self, message: Message, publisher: str = "local") -> DeliveryReport:
        with self._lock:
            self._check_running()
            if message.qos == 1 and message.message_id is None:
                mid = self._message_ids.get(publisher, 0) + 1
                self._message_ids[publisher] = mid
                message = Message(message.topic, message.payload, 1, mid)
            self.stats["published"] += 1
            matched = 0
            acked = 0
            for sid in sorted(self._subscriptions):
                sub = self._subscriptions.get(sid)
                if sub is None or not sub.filter.matches(message.topic):
                    continue
                matched += 1
                sub.outbox.append(_Pending(message, publisher, 0, self.now_ms))
                if len(sub.outbox) == 1:
                    acked += self._pump(sub)
            return DeliveryReport(matched, acked)

    def publish_text(self, topic: str, payload: str, qos: int = 0, publisher: str = "local"):
        return self.publish(
            Message(Topic.parse(topic), payload.encode("utf-8"), qos), publisher
        )

    # --- delivery engine ------------------------------------------------

    def _attempt_once(self, sub: _Subscription) -> str:
        """One delivery attempt on the head message.

        Returns "acked" (head confirmed and popped), "disposed" (qos-0 done
        or dead-lettered) or "pending" (qos-1 still awaiting ack/retry)."""
        pending = sub.outbox[0]
        message = pending.message
        effective_qos = min(message.qos, sub.qos)
        duplicate = pending.attempts > 0
        pending.attempts += 1
        if duplicate:
            self.stats["retries"] += 1

        dropped = self.faults.drop_delivery()
        if dropped:
            self.stats["dropped_deliveries"] += 1
        else:
            sub.callback(
                Delivery(
                    sub.sid,
                    message.topic,
                    message.payload,
                    effective_qos,
                    message.message_id,
                    duplicate,
                    pending.publisher,
                )
            )
            self.stats["delivered"] += 1

        if effective_qos == 0:
            sub.outbox.pop(0)  # at most once: one attempt, no ack tracking
            return "disposed"

        if not dropped and sub.auto_ack:
            if self.faults.drop_ack():
                self.stats["dropped_acks"] += 1
            else:
                sub.outbox.pop(0)
                self.stats["acked"] += 1
                return "acked"
        if pending.attempts > self.max_retries:
            sub.outbox.pop(0)
            self.stats["dead_lettered"] += 1
            dead_topic = Topic((DEAD_LETTER_ROOT,) + message.topic.segments)
            self.publish(Message(dead_topic, message.payload, 0), publisher="$broker")
            return "disposed"
        pending.next_attempt_ms = self.now_ms + self.retry_interval_ms
        return "pending"

    def _pump(self, sub: _Subscription) -> int:
        """Drive the outbox until it empties or the head is waiting; returns
        how many messages got acked along the way."""
        acked = 0
        while sub.outbox:
            head = sub.outbox[0]
            if head.attempts > 0 and head.next_attempt_ms > self.now_ms:
                break  # retry timer still running
            outcome = self._attempt_once(sub)
            if outcome == "pending":
                break
            if outcome == "acked":
                acked += 1
        return acked

    def ack(self, sid: int, message_id: int) -> bool:
        """Manual ack from a subscriber registered with ``auto_ack=False``."""
        with self._lock:
            sub = self._subscriptions.get(sid)
            if not sub or not sub.outbox:
                return False
            head = sub.outbox[0]
            if head.message.message_id != message_id or head.attempts == 0:
                return False
            sub.outbox.pop(0)
            self.stats["acked"] += 1
            self._pump(sub)
            return True

    # --- simulated time -------------------------------------------------

    def advance(self, ms: int):
        """Move the simulated clock forward, firing due redeliveries."""
        with self._lock:
            target = self.now_ms + ms
            while True:
                due = [
                    s.outbox[0].next_attempt_ms
                    for s in self._subscriptions.values()
                    if s.outbox and s.outbox[0].attempts > 0
                ]
                next_due = min(due, default=None)
                if next_due is None or next_due > target:
                    break
                self.now_ms = max(self.now_ms, next_due)
                for sid in sorted(self._subscriptions):
                    sub = self._subscriptions.get(sid)
                    if (
                        sub
                        and sub.outbox
                        and sub.outbox[0].attempts > 0
                        and sub.outbox[0].next_attempt_ms <= self.now_ms
                    ):
                        self._pump(sub)
            self.now_ms = target

    def run_until_idle(self, max_ms: int = 60 * 60 * 1000) -> int:
        """Advance time until every outbox is empty; returns elapsed ms."""
        start = self.now_ms
        while self.pending_count():
            if self.now_ms - start > max_ms:
                raise BrokerDown("run_until_idle exceeded time budget")
            self.advance(self.retry_interval_ms)
        return self.now_ms - start

    def pending_count(self) -> int:
        with self._lock:
            return sum(len(s.outbox) for s in self._subscriptions.values())
