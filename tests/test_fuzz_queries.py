"""Seeded fuzzing of the query-document edge.

Mutations of valid query documents (dropped, retyped, nested and duplicated
fields, bad IRIs, literals and operators) must each be answered or refused
with one of the errors the gateway maps to 400, never with another
exception or a dropped connection.  The generator is stdlib `random` under a
fixed seed, so every run checks the same documents.
"""

import copy
import json
import random
import urllib.error
import urllib.request

import pytest

from semhub.errors import HubError
from semhub.gateway import GatewayServer
from semhub.hub import Hub, ScenarioConfig

SEED = 20191
DOCUMENTS = 300
OVER_HTTP = 40

# The refusals `POST /queries` answers with 400.
REFUSALS = (HubError, KeyError, ValueError)

VITALS = "urn:sem:graph:central:vitals"
MOTION = "urn:sem:graph:vo:smart-home:motion:alice"

VALID = (
    {
        "select": ["?record", "?hr"],
        "where": [
            ["?record", "urn:sem:type", "urn:sem:class:VitalsRecord"],
            ["?record", "urn:sem:heartRate", "?hr"],
        ],
        "filters": [{"var": "?hr", "op": ">", "value": {"value": "100", "type": "decimal"}}],
        "graphs": [VITALS],
    },
    {
        "select": ["?vo"],
        "where": [["?vo", "urn:sem:type", "urn:sem:class:MotionSensor"]],
        "graphs": [MOTION],
    },
    {
        "select": ["?s", "?p"],
        "where": [["?s", "?p", "urn:sem:class:VitalsRecord"]],
    },
    {
        "select": ["?r", "?patient"],
        "where": [
            ["?r", "urn:sem:patientId", "?patient"],
            ["?r", "urn:sem:systolicPressure", "?sys"],
        ],
        "filters": [
            {"var": "?patient", "op": "=", "value": {"value": "alice"}},
            {"var": "?sys", "op": "<=", "value": {"value": "180.5", "type": "decimal"}},
        ],
        "graphs": [VITALS, MOTION],
    },
)

BAD_IRIS = ("", "no-scheme", "urn:with space", "?", "? x", "urn:tab\there")
BAD_LITERALS = (
    {"value": "x", "type": "integer"},
    {"value": "1.5.2", "type": "decimal"},
    {"value": "yes", "type": "boolean"},
    {"value": "noon", "type": "dateTime"},
    {"value": "1", "type": "float"},
    {"value": "1", "type": None},
    {"value": ["nested"], "type": "string"},
    {"type": "integer"},
)
BAD_OPS = ("~", "", "==", "=>", None, 1, ["<"], {"op": ">"})
RETYPED = (None, True, 0, -7, 3.5, "", "text", [], {}, [[]], {"value": None})
FIELDS = ("select", "where", "filters", "graphs")


def _slots(doc):
    """Every (container, key) that holds a value inside a document."""
    found = []

    def walk(node):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in list(keys):
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    return found


def _mutate(doc, rng):
    slots = _slots(doc)
    if not slots:
        return {rng.choice(FIELDS): rng.choice(RETYPED)}
    node, key = rng.choice(slots)
    kind = rng.randrange(7)
    if kind == 0:  # drop
        del node[key]
    elif kind == 1:  # retype
        node[key] = copy.deepcopy(rng.choice(RETYPED))
    elif kind == 2:  # nest
        node[key] = [node[key]] if rng.random() < 0.5 else {"value": node[key]}
    elif kind == 3:  # duplicate
        if isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        else:
            node[key] = [copy.deepcopy(node[key])] * 2
    elif kind == 4:
        node[key] = rng.choice(BAD_IRIS)
    elif kind == 5:
        node[key] = copy.deepcopy(rng.choice(BAD_LITERALS))
    else:
        node[key] = copy.deepcopy(rng.choice(BAD_OPS))
    return doc


def fuzzed_documents():
    rng = random.Random(SEED)
    docs = []
    for _ in range(DOCUMENTS):
        doc = copy.deepcopy(rng.choice(VALID))
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(doc, rng)
        docs.append(doc)
    return docs


@pytest.fixture(scope="module")
def hub():
    h = Hub(ScenarioConfig(duration_ticks=40))
    h.run()
    yield h
    h.close()


@pytest.fixture(scope="module")
def outcomes(hub):
    """Each fuzzed document with True if it was answered, False if refused,
    and how many queries the hub counted while they ran."""
    counted = hub.interop.counters["query"]
    results = []
    for doc in fuzzed_documents():
        try:
            answer = hub.run_query(doc)
        except REFUSALS:
            results.append((doc, False))
            continue
        except Exception as exc:  # noqa: BLE001 - any other error is the failure
            pytest.fail(f"{type(exc).__name__}: {exc} for {json.dumps(doc)}")
        assert answer["count"] == len(answer["rows"])
        assert answer["logStatus"] in ("hit", "miss-generated")
        results.append((doc, True))
    return results, hub.interop.counters["query"] - counted


def test_valid_documents_answer(hub):
    for doc in VALID:
        assert hub.run_query(doc)["count"] >= 0


def test_fuzzed_documents_answer_or_are_refused(outcomes):
    results, counted = outcomes
    answered = sum(ok for _, ok in results)
    # the mix exercises both sides of the edge
    assert 0 < answered < len(results) == DOCUMENTS
    assert counted == answered  # a refused query is not counted


def _post(url, doc):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def test_fuzzed_documents_over_the_gateway(hub, outcomes):
    server = GatewayServer(hub).start()
    try:
        url = f"http://127.0.0.1:{server.port}/queries"
        results, _ = outcomes
        for doc, answered in results[:: DOCUMENTS // OVER_HTTP][:OVER_HTTP]:
            status, body = _post(url, doc)
            assert status == (200 if answered else 400), json.dumps(doc)
            assert ("rows" if answered else "error") in body
    finally:
        server.stop()
