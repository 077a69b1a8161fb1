"""Seeded fuzzing of the scenario-document and request-body edges.

Scenario documents: the bundled scenario (plus one scripted fault) with
one to three of its values replaced by one its key can never take (a wrong
JSON type, a value out of range, a dropped required key, a wrong container).
Each such document must end `hub run` with exit status 2 and one
`hub: error:` line, before the scenario runs, never with another exception.

Request bodies: valid `POST /requests` bodies with fields dropped, retyped,
nested, duplicated or set to bad values.  Each must get a 400 with an
error or a 200 with a request record, never a traceback or a dropped
connection.

The generator is stdlib `random` under a fixed seed, as in
`test_fuzz_queries.py`, so every run checks the same inputs.
"""

import copy
import json
import random
import urllib.error
import urllib.request

import pytest

from semhub.cli import main
from semhub.gateway import GatewayServer
from semhub.hub import DATA_DIR, Hub, ScenarioConfig

SEED = 20192
SCENARIOS = 200
BODIES = 60

# --- scenario documents -----------------------------------------------------

BASE_SCENARIO = dict(
    json.loads((DATA_DIR / "scenario.json").read_text(encoding="utf-8")),
    faults=[{"tick": 40, "kind": "reason.activity", "removeTemplate": False}],
)

NOT_INTEGERS = (1.5, "7", True, None, [], {})
NOT_NUMBERS = ("0.1", True, None, [], {})
NOT_STRINGS = (5, None, True, [], {})
NOT_LISTS = (None, 5, "", "x", {}, {"tick": 1}, True)
# Values each role can never take, whatever the rest of the document holds.
NEVER = {
    "seed": NOT_INTEGERS,
    "durationTicks": NOT_INTEGERS + (-1,),
    "trainInstances": NOT_INTEGERS + (0, 1, 4),
    "cvoRuleInterval": NOT_INTEGERS + (0, -3),
    "medicalBatchInterval": NOT_INTEGERS + (0, -3),
    "monitorInterval": NOT_INTEGERS + (0, -3),
    "noiseRate": NOT_NUMBERS + (-0.5, 1.5),
    "holdout": NOT_NUMBERS + (0, 1, 2.5),
    "users": (None, 5, "alice", [], ["alice"], {}, {"al ice": 3}, {"": 3}, {"+": 3}),
    "level": NOT_INTEGERS + (-1, 4),
    "requests": NOT_LISTS,
    "faults": NOT_LISTS,
    "entry": (5, "x", None, [], {}, [{"tick": 1}]),
    "tick": NOT_INTEGERS + (-1, 10**9),
    "capability": NOT_STRINGS,
    "user": NOT_STRINGS,
    "kind": NOT_STRINGS + ("no.such.kind",),
    "removeTemplate": ("false", 0, 1, None),
}
REQUIRED = {"tick", "capability", "user", "kind"}  # an entry cannot lack these
NOT_OBJECTS = ([], "x", 5, None, [BASE_SCENARIO["users"]])


def _slots(doc):
    """Every (container, key, role) the scenario reads, as far as the
    document still has the expected shape."""
    found = []
    if not isinstance(doc, dict):
        return found
    for key, value in doc.items():
        if key not in NEVER:
            continue
        found.append((doc, key, key))
        if key == "users" and isinstance(value, dict):
            found += [(value, name, "level") for name in value]
        elif key in ("requests", "faults") and isinstance(value, list):
            for i, entry in enumerate(value):
                found.append((value, i, "entry"))
                if isinstance(entry, dict):
                    found += [(entry, k, k) for k in entry if k in NEVER]
    return found


def _break(doc, rng):
    """Put one value no scenario accepts somewhere in the document."""
    slots = _slots(doc)
    if not slots or rng.random() < 0.03:
        return copy.deepcopy(rng.choice(NOT_OBJECTS))
    node, key, role = rng.choice(slots)
    if role in REQUIRED and rng.random() < 0.3:
        del node[key]
    else:
        node[key] = copy.deepcopy(rng.choice(NEVER[role]))
    return doc


def broken_scenarios():
    """The document after each break, so every single break is checked."""
    rng = random.Random(SEED)
    docs = []
    for _ in range(SCENARIOS):
        doc = copy.deepcopy(BASE_SCENARIO)
        for _ in range(rng.randint(1, 3)):
            doc = _break(doc, rng)
            docs.append(copy.deepcopy(doc))
    return docs


def test_base_scenario_is_valid():
    ScenarioConfig.from_json(BASE_SCENARIO)


def test_broken_scenarios_end_in_one_error_line(capsys, monkeypatch, tmp_path):
    def ran(self):
        raise AssertionError("a broken scenario ran")

    monkeypatch.setattr(Hub, "run", ran)
    path = tmp_path / "scenario.json"
    for doc in broken_scenarios():
        text = json.dumps(doc)
        path.write_text(text, encoding="utf-8")
        try:
            main(["run", "--config", str(path)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any other error is the failure
            pytest.fail(f"{type(exc).__name__}: {exc} for {text}")
        else:
            pytest.fail(f"accepted {text}")
        out, err = capsys.readouterr()
        assert code == 2 and out == "", text
        assert err.startswith("hub: error: ") and err.count("\n") == 1, (err, text)


# --- request bodies ---------------------------------------------------------

TICKS = 40
VALID_BODIES = (
    {"capability": "analytics.physio-status", "user": "alice", "tick": 20},
    {"capability": "reason.activity", "user": "carol"},
    {"capability": "analytics.location", "user": "alice", "tick": 0},
    {"capability": "analytics.activity-physio-correlation", "user": "alice", "tick": TICKS},
)
RETYPED = (None, True, False, 0, -7, 3.5, "", "text", [], {}, [[]], {"value": None})
BAD_TICKS = (-1, TICKS + 1, 10**12, -(10**12), 2.5, "3", True, None, [3], {"tick": 3})
BAD_NAMES = ("", " ", "no.such.capability", "nobody", "alice\n", "x" * 300, "\u0000")
NOT_BODIES = ([], "x", 5, None, True, [VALID_BODIES[0]])


def _mutate(body, rng):
    if not isinstance(body, dict) or rng.random() < 0.05:
        return copy.deepcopy(rng.choice(NOT_BODIES))
    key = rng.choice(sorted(body) + ["tick", "extra"])
    kind = rng.randrange(5)
    if kind == 0:
        body.pop(key, None)
    elif kind == 1:
        body[key] = copy.deepcopy(rng.choice(RETYPED))
    elif kind == 2:
        if key in body:
            body[key] = [body[key]] if rng.random() < 0.5 else {"value": body[key]}
    elif kind == 3:
        body[key] = rng.choice(BAD_TICKS)
    else:
        body[key] = rng.choice(BAD_NAMES)
    return body


def fuzzed_bodies():
    rng = random.Random(SEED + 1)
    bodies = []
    for _ in range(BODIES):
        body = copy.deepcopy(rng.choice(VALID_BODIES))
        for _ in range(rng.randint(1, 3)):
            body = _mutate(body, rng)
        bodies.append(body)
    return bodies


def _post(url, body):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


@pytest.fixture(scope="module")
def served():
    hub = Hub(ScenarioConfig(duration_ticks=TICKS))
    hub.run()
    server = GatewayServer(hub).start()
    yield hub, f"http://127.0.0.1:{server.port}/requests"
    server.stop()
    hub.close()


def test_valid_request_bodies_are_answered(served):
    _, url = served
    for body in VALID_BODIES:
        status, record = _post(url, body)
        assert status == 200 and record["outcome"] == "completed", (body, record)


def test_fuzzed_request_bodies_are_answered_or_refused(served):
    hub, url = served
    answered = 0
    for body in fuzzed_bodies():
        before = len(hub.report()["requests"])
        status, doc = _post(url, body)
        after = len(hub.report()["requests"])
        text = json.dumps(body)
        if status == 400:
            assert set(doc) == {"error"} and after == before, text
            continue
        assert status == 200, (status, text)
        assert doc["outcome"] in ("completed", "denied", "failed"), text
        assert doc["capability"] == body["capability"] and doc["user"] == body["user"], text
        assert after == before + 1, text
        answered += 1
    assert 0 < answered < BODIES  # the mix exercises both sides of the edge
