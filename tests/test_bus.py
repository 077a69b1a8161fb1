"""Broker behavior: filter matching, QoS semantics, faults."""

import dataclasses
import random

import pytest

from semhub.bus import (
    MAX_RETRIES,
    RETRY_INTERVAL_MS,
    Broker,
    Delivery,
    FaultInjector,
    Message,
    Topic,
    TopicFilter,
)
from semhub.errors import BrokerDown, InvalidFilter
from records import check_record


def collect(sink: list):
    return lambda d: sink.append(d)


# --- topics and filters -----------------------------------------------------


def test_topic_parse_and_render():
    t = Topic.parse("obs/home/temp")
    assert t.segments == ("obs", "home", "temp")
    assert str(t) == "obs/home/temp"


def test_topic_rejects_empty_and_wildcards():
    with pytest.raises(InvalidFilter):
        Topic(())
    with pytest.raises(InvalidFilter):
        Topic.parse("obs//temp")
    with pytest.raises(InvalidFilter):
        Topic.parse("obs/+/temp")
    with pytest.raises(InvalidFilter):
        Topic.parse("obs/#")


def test_filter_hash_only_trailing():
    TopicFilter.parse("a/#")  # fine
    TopicFilter.parse("#")  # fine
    with pytest.raises(InvalidFilter):
        TopicFilter.parse("a/#/b")


def test_filter_matching_known_cases():
    assert TopicFilter.parse("obs/#").matches(Topic.parse("obs/home/temp"))
    assert not TopicFilter.parse("obs/+/temp").matches(
        Topic.parse("obs/home/kitchen/temp")
    )
    assert TopicFilter.parse("obs/+/temp").matches(Topic.parse("obs/home/temp"))
    assert TopicFilter.parse("a/#").matches(Topic.parse("a"))
    assert not TopicFilter.parse("a/b").matches(Topic.parse("a"))
    assert not TopicFilter.parse("a").matches(Topic.parse("a/b"))


def test_wildcard_filters_skip_system_topics():
    assert not TopicFilter.parse("#").matches(Topic.parse("$dead/obs/x"))
    assert not TopicFilter.parse("+/obs/x").matches(Topic.parse("$dead/obs/x"))
    assert TopicFilter.parse("$dead/#").matches(Topic.parse("$dead/obs/x"))


def oracle_match(f: tuple, t: tuple, at_start=True) -> bool:
    """Reference recursive matcher, written independently of the broker."""
    if at_start and f and f[0] in ("+", "#") and t and t[0].startswith("$"):
        return False
    if not f:
        return not t
    if f[0] == "#":
        return True
    if not t:
        return False
    if f[0] == "+" or f[0] == t[0]:
        return oracle_match(f[1:], t[1:], at_start=False)
    return False


def random_topic(rng) -> Topic:
    pool = ["a", "b", "obs", "home", "temp", "$sys"]
    n = rng.randint(1, 4)
    return Topic(tuple(rng.choice(pool) for _ in range(n)))


def random_filter(rng) -> TopicFilter:
    pool = ["a", "b", "obs", "home", "temp", "+", "$sys"]
    n = rng.randint(1, 4)
    segments = [rng.choice(pool) for _ in range(n)]
    if rng.random() < 0.3:
        segments.append("#")
    return TopicFilter(tuple(segments))


def test_matching_agrees_with_oracle_on_random_pairs():
    rng = random.Random("match-oracle")
    checked = 0
    matched = 0
    for _ in range(1500):
        t = random_topic(rng)
        f = random_filter(rng)
        expected = oracle_match(f.segments, t.segments)
        assert f.matches(t) == expected, (str(f), str(t))
        checked += 1
        matched += expected
    assert checked == 1500
    assert 0 < matched < checked  # the corpus exercises both outcomes


# --- basic delivery ---------------------------------------------------------


def test_message_and_delivery_are_slotted_frozen_records():
    t = Topic(("obs", "home"))
    check_record(
        Message, (t, b"x", 1, 7),
        "Message(topic=Topic(segments=('obs', 'home')), payload=b'x', qos=1, message_id=7)",
        ("qos", 0),
    )
    assert Message(t, b"x") == Message(topic=t, payload=b"x", qos=0, message_id=None)
    check_record(
        Delivery, (3, t, b"x", 1, 7, True, "home"),
        "Delivery(subscription_id=3, topic=Topic(segments=('obs', 'home')), payload=b'x', "
        "qos=1, message_id=7, duplicate=True, publisher='home')",
        ("duplicate", False),
    )


@pytest.mark.parametrize("qos", [2, -1, None, "1"])
def test_message_refuses_an_unsupported_qos(qos):
    t = Topic(("obs",))
    with pytest.raises(InvalidFilter, match="unsupported qos"):
        Message(t, b"x", qos)
    with pytest.raises(InvalidFilter, match="unsupported qos"):
        Message(topic=t, payload=b"x", qos=qos)
    with pytest.raises(InvalidFilter, match="unsupported qos"):
        dataclasses.replace(Message(t, b"x"), qos=qos)


def test_publish_no_subscribers():
    broker = Broker()
    report = broker.publish_text("obs/home/temp", "21.5")
    assert report.matched_subscribers == 0


def test_qos0_exactly_once_without_faults():
    broker = Broker()
    seen = []
    broker.subscribe("c1", "obs/#", 0, collect(seen))
    for i in range(20):
        broker.publish_text("obs/home/temp", f"v{i}")
    assert [d.payload.decode() for d in seen] == [f"v{i}" for i in range(20)]
    assert all(not d.duplicate for d in seen)


def test_delivery_carries_topic_and_publisher():
    broker = Broker()
    seen = []
    broker.subscribe("c1", "obs/+/door", 0, collect(seen))
    broker.publish_text("obs/home/door", "open", publisher="sim-home")
    (d,) = seen
    assert str(d.topic) == "obs/home/door"
    assert d.publisher == "sim-home"
    assert d.qos == 0


def test_multiple_matching_subscriptions_each_get_a_copy():
    broker = Broker()
    a, b = [], []
    broker.subscribe("c1", "obs/#", 0, collect(a))
    broker.subscribe("c2", "obs/home/+", 0, collect(b))
    report = broker.publish_text("obs/home/temp", "x")
    assert report.matched_subscribers == 2
    assert len(a) == len(b) == 1


def test_resubscribe_same_filter_updates_qos_in_place():
    broker = Broker()
    sid1 = broker.subscribe("c1", "obs/#", 0)
    sid2 = broker.subscribe("c1", "obs/#", 1)
    assert sid1 == sid2
    assert broker.subscriptions() == [(sid1, "c1", "obs/#", 1)]


def test_unsubscribe_stops_delivery():
    broker = Broker()
    seen = []
    sid = broker.subscribe("c1", "obs/#", 0, collect(seen))
    broker.publish_text("obs/a", "1")
    assert broker.unsubscribe(sid)
    broker.publish_text("obs/a", "2")
    assert [d.payload for d in seen] == [b"1"]
    assert not broker.unsubscribe(sid)


def test_callbacks_changing_subscriptions_during_a_publish():
    broker = Broker()
    order = []

    def noting(name):
        return lambda d: order.append((name, d.payload))

    def first(d):
        noting("first")(d)
        broker.subscribe("late", "obs/#", 0, noting("late"))
        broker.unsubscribe(third)

    broker.subscribe("c1", "obs/#", 0, first)
    broker.subscribe("c2", "obs/+", 0, noting("second"))
    third = broker.subscribe("c3", "obs/a", 0, noting("third"))
    report = broker.publish_text("obs/a", "1")
    # a subscription added in flight waits for the next message; one removed
    # in flight gets nothing more; the rest are served in sid order
    assert order == [("first", b"1"), ("second", b"1")]
    assert report.matched_subscribers == 2
    broker.publish_text("obs/a", "2")
    assert order[2:] == [("first", b"2"), ("second", b"2"), ("late", b"2")]


def test_broker_down_after_shutdown():
    broker = Broker()
    broker.shutdown()
    with pytest.raises(BrokerDown):
        broker.publish_text("a", "x")
    with pytest.raises(BrokerDown):
        broker.subscribe("c", "a")


# --- qos 1 ------------------------------------------------------------------


def test_qos1_assigns_sequential_message_ids_per_publisher():
    broker = Broker()
    seen = []
    broker.subscribe("c1", "#", 1, collect(seen))
    broker.publish_text("a/b", "1", qos=1, publisher="p1")
    broker.publish_text("a/b", "2", qos=1, publisher="p1")
    broker.publish_text("a/b", "3", qos=1, publisher="p2")
    assert [(d.message_id, d.publisher) for d in seen] == [
        (1, "p1"), (2, "p1"), (1, "p2"),
    ]


def test_qos1_clean_path_acks_immediately():
    broker = Broker()
    seen = []
    broker.subscribe("c1", "a", 1, collect(seen))
    report = broker.publish_text("a", "x", qos=1)
    assert report.acked == 1
    assert broker.pending_count() == 0
    assert not seen[0].duplicate


def test_qos_downgraded_to_subscription_level():
    broker = Broker()
    seen = []
    broker.subscribe("c1", "a", 0, collect(seen))  # qos-0 subscription
    broker.publish_text("a", "x", qos=1)
    assert seen[0].qos == 0
    assert broker.pending_count() == 0  # no ack cycle at qos 0


def test_qos1_redelivers_with_duplicate_flag_until_acked():
    broker = Broker(FaultInjector("t", ack_drop_rate=1.0))
    seen = []
    sid = broker.subscribe("c1", "a", 1, collect(seen))
    broker.publish_text("a", "x", qos=1)
    broker.advance(250)  # two retry intervals
    assert [d.duplicate for d in seen] == [False, True, True]
    # manual rescue: ack via the public endpoint
    assert broker.ack(sid, seen[-1].message_id)
    broker.advance(1000)
    assert len(seen) == 3


def test_qos1_dead_letters_after_retry_budget():
    broker = Broker(FaultInjector("t", ack_drop_rate=1.0))
    seen, dead = [], []
    broker.subscribe("c1", "a", 1, collect(seen))
    broker.subscribe("watch", "$dead/#", 0, collect(dead))
    broker.publish_text("a", "x", qos=1)
    elapsed = broker.run_until_idle()
    assert len(seen) == 11  # initial attempt + 10 retries
    assert broker.stats["dead_lettered"] == 1
    assert [str(d.topic) for d in dead] == ["$dead/a"]
    assert dead[0].payload == b"x"
    assert elapsed >= 10 * RETRY_INTERVAL_MS


def test_qos1_stop_and_wait_is_fifo():
    broker = Broker(FaultInjector("t", ack_drop_rate=0.6))
    seen = []
    broker.subscribe("c1", "a", 1, collect(seen))
    for i in range(30):
        broker.publish_text("a", f"m{i}", qos=1)
    broker.run_until_idle()
    firsts = [d.payload.decode() for d in seen if not d.duplicate]
    assert firsts == [f"m{i}" for i in range(30)]
    # receipts never regress: the message index per receipt is non-decreasing
    indexes = [int(d.payload.decode()[1:]) for d in seen]
    assert indexes == sorted(indexes)


def test_qos1_fault_harness_no_loss_bounded_duplicates():
    broker = Broker(FaultInjector("harness-seed", ack_drop_rate=0.5))
    received: dict[bytes, int] = {}

    def on_delivery(d: Delivery):
        received[d.payload] = received.get(d.payload, 0) + 1

    broker.subscribe("c1", "obs/#", 1, on_delivery)
    total = 200
    for i in range(total):
        broker.publish_text("obs/home/temp", f"m{i}", qos=1)
    broker.run_until_idle()
    assert len(received) == total  # nothing lost
    assert max(received.values()) <= 1 + MAX_RETRIES
    assert broker.stats["dead_lettered"] == 0 or max(received.values()) == 11


def test_qos0_losses_allowed_but_never_duplicated():
    broker = Broker(FaultInjector("droppy", delivery_drop_rate=0.4))
    received: dict[bytes, int] = {}
    broker.subscribe("c1", "a", 0, lambda d: received.update(
        {d.payload: received.get(d.payload, 0) + 1}
    ))
    for i in range(100):
        broker.publish_text("a", f"m{i}")
    assert broker.pending_count() == 0  # qos 0 never queues retries
    assert 0 < len(received) < 100  # this seed drops some, delivers some
    assert max(received.values()) == 1


def test_qos1_survives_delivery_drops_too():
    broker = Broker(FaultInjector("flaky-link", delivery_drop_rate=0.3))
    received = []
    broker.subscribe("c1", "a", 1, collect(received))
    for i in range(50):
        broker.publish_text("a", f"m{i}", qos=1)
    broker.run_until_idle()
    firsts = {d.payload for d in received}
    assert firsts == {f"m{i}".encode() for i in range(50)}


def test_unsubscribe_with_messages_in_flight_stops_redelivery():
    broker = Broker(FaultInjector("t", ack_drop_rate=1.0))
    seen = []
    sid = broker.subscribe("c1", "a", 1, collect(seen))
    broker.publish_text("a", "x", qos=1)
    broker.publish_text("a", "y", qos=1)
    assert len(seen) == 1  # head attempted once, second queued
    broker.unsubscribe(sid)
    broker.advance(5000)
    assert len(seen) == 1
    assert broker.pending_count() == 0


def test_independent_outboxes_one_slow_subscriber_does_not_block_other():
    broker = Broker()
    slow, fast = [], []
    broker.subscribe("slow", "a", 1, collect(slow), auto_ack=False)
    broker.subscribe("fast", "a", 1, collect(fast))
    broker.publish_text("a", "m1", qos=1)
    broker.publish_text("a", "m2", qos=1)
    # the manual-ack subscriber is stuck on m1; the auto-ack one sails through
    assert [d.payload for d in fast] == [b"m1", b"m2"]
    assert [d.payload for d in slow] == [b"m1"]
    assert broker.pending_count() == 2  # m1 in flight + m2 queued behind it
