"""HTTP gateway routes against a live hub."""

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from semhub.gateway import GatewayServer
from semhub.hub import Hub, ScenarioConfig


@pytest.fixture(scope="module")
def served():
    hub = Hub(ScenarioConfig(duration_ticks=60))
    hub.run()
    server = GatewayServer(hub).start()
    yield hub, f"http://127.0.0.1:{server.port}"
    server.stop()
    hub.close()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def _post(url, doc):
    req = urllib.request.Request(
        url,
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def test_report_route(served):
    _, base = served
    status, doc = _get(base + "/report")
    assert status == 200
    assert doc["scenario"]["durationTicks"] == 60
    assert set(doc["resolution"]) >= {"single-domain", "mashup-generated", "denied"}


def test_objects_listing(served):
    _, base = served
    status, doc = _get(base + "/objects")
    assert status == 200
    assert len(doc["virtual"]) == 18
    assert len(doc["composite"]) == 2


def test_object_detail_route(served):
    _, base = served
    iri = urllib.parse.quote("urn:sem:vo:smart-office:beacon:alice", safe="")
    status, doc = _get(base + f"/objects/{iri}")
    assert status == 200
    assert doc["id"] == "urn:sem:vo:smart-office:beacon:alice"
    assert doc["recent"], "a 60-tick run should leave beacon readings"


def test_object_detail_unknown_is_404(served):
    _, base = served
    status, doc = _get(base + "/objects/urn:sem:vo:nope")
    assert status == 404
    assert "unknown object" in doc["error"]


def test_services_route(served):
    _, base = served
    status, doc = _get(base + "/services")
    assert status == 200
    assert len(doc) == 6
    assert {d["state"] for d in doc} == {"Running"}


def test_submit_request_roundtrip(served):
    hub, base = served
    before = hub.report()["resolution"]["single-domain"]
    status, record = _post(
        base + "/requests", {"capability": "reason.activity", "user": "alice"}
    )
    assert status == 200
    assert record["outcome"] == "completed"
    assert record["path"] == "single-domain"
    assert hub.report()["resolution"]["single-domain"] == before + 1


def test_submit_request_requires_fields(served):
    _, base = served
    status, doc = _post(base + "/requests", {"capability": "reason.activity"})
    assert status == 400
    assert "required" in doc["error"]


@pytest.mark.parametrize("tick", ["12", 12.0, 12.5, True])
def test_submit_request_rejects_non_integer_tick(served, tick):
    _, base = served
    status, doc = _post(
        base + "/requests",
        {"capability": "reason.activity", "user": "alice", "tick": tick},
    )
    assert status == 400
    assert "tick must be a JSON integer" in doc["error"]
    # the connection was answered, not dropped, and the server still serves
    status, record = _post(
        base + "/requests",
        {"capability": "reason.activity", "user": "alice", "tick": 12},
    )
    assert status == 200
    assert record["tick"] == 12
    assert record["outcome"] == "completed"


def test_query_route(served):
    _, base = served
    status, doc = _post(
        base + "/queries",
        {
            "select": ["?vo"],
            "where": [["?vo", "urn:sem:type", "urn:sem:class:ZoneBeacon"]],
            "graphs": ["urn:sem:graph:vo:smart-office:beacon:alice"],
        },
    )
    assert status == 200
    assert doc["count"] == 1


def test_query_route_rejects_malformed(served):
    _, base = served
    status, doc = _post(base + "/queries", {"select": ["not-a-variable"]})
    assert status == 400
    assert doc["error"]


@pytest.mark.parametrize(
    "query",
    [
        {"where": [5]},
        {"where": [["?x", "urn:sem:type"]]},
        {"where": 3},
        {"graphs": 5},
        {"graphs": [5]},
        {"filters": [5]},
        {"filters": [{"var": "?x"}]},
        {"select": "?x"},
    ],
    ids=json.dumps,
)
def test_query_route_rejects_bad_shapes(served, query):
    _, base = served
    status, doc = _post(base + "/queries", query)
    assert status == 400
    [field] = query
    assert doc["error"].startswith(field)
    # the connection was answered, not dropped, and the server still serves
    status, doc = _post(
        base + "/queries",
        {"select": ["?vo"], "where": [["?vo", "urn:sem:type", "urn:sem:class:ZoneBeacon"]]},
    )
    assert status == 200
    assert doc["count"] >= 1


def test_unknown_route_is_404(served):
    _, base = served
    status, doc = _get(base + "/nothing/here")
    assert status == 404
