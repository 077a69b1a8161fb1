"""The `hub` CLI, invoked in-process for speed."""

import gc
import http.client
import json
import socket
import threading
import warnings

import pytest

from semhub.cli import main
from semhub.gateway import GatewayServer
from semhub.hub import Hub
from semhub.semantic import MAX_BINDINGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_prints_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "run", "--ticks", "40", "--report", str(out_file)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"]["durationTicks"] == 40
    assert out_file.read_text(encoding="utf-8") == out


def test_run_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "run", "--ticks", "60", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "run", "--ticks", "60", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_seed_changes_report(capsys):
    _, out1, _ = run_cli(capsys, "run", "--ticks", "60", "--seed", "1")
    _, out2, _ = run_cli(capsys, "run", "--ticks", "60", "--seed", "2")
    assert out1 != out2


def test_objects_list(capsys):
    code, out, _ = run_cli(capsys, "objects", "list", "--ticks", "0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["virtual"]) == 18
    ids = [vo["id"] for vo in doc["virtual"]]
    assert ids == sorted(ids)


def test_objects_show(capsys):
    code, out, _ = run_cli(
        capsys, "objects", "show", "urn:sem:vo:medical-facility:hr:alice", "--ticks", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert any("heartRate" in line for line in doc["description"])


def test_objects_show_unknown_fails(capsys):
    code, out, err = run_cli(capsys, "objects", "show", "urn:sem:vo:ghost", "--ticks", "0")
    assert code == 1
    assert "unknown object" in err
    assert out == ""


@pytest.mark.parametrize("iri", ["nope", "has space"])
def test_objects_show_malformed_iri_fails(capsys, iri):
    code, out, err = run_cli(capsys, "objects", "show", iri, "--ticks", "0")
    assert code == 1
    assert err == f"hub: error: not an absolute IRI: {iri!r}\n"
    assert out == ""

def test_services_list(capsys):
    code, out, _ = run_cli(capsys, "services", "list", "--ticks", "0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 6
    assert all(d["state"] == "Running" for d in doc)


def test_query_file(capsys, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(
        json.dumps(
            {
                "select": ["?vo"],
                "where": [["?vo", "urn:sem:type", "urn:sem:class:VitalsSensor"]],
                "graphs": [
                    "urn:sem:graph:vo:medical-facility:hr:alice",
                    "urn:sem:graph:vo:medical-facility:systolic:alice",
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "query", "--file", str(q), "--ticks", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2


def run_cli_rejected(capsys, monkeypatch, *argv):
    """Run a command whose input must be refused before the scenario runs."""

    def ran(self):
        raise AssertionError("the scenario ran before its input was checked")

    monkeypatch.setattr(Hub, "run", ran)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("hub: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    return captured.err


@pytest.mark.parametrize(
    "text",
    [
        None,
        "{not json",
        "[1, 2]",
        '{"where": [5]}',
        '{"select": "?x"}',
        '{"where": [["?x", "urn:sem:type", {"type": "integer"}]]}',
        '{"where": [["?x", "urn:sem:type", {"value": null}]]}',
        '{"where": [["?x", "urn:sem:type", {"value": [1]}]]}',
        pytest.param("[" * 100_000, id="deeply-nested"),
    ],
)
def test_query_file_rejected_before_run(capsys, monkeypatch, tmp_path, text):
    q = tmp_path / "q.json"
    if text is not None:  # None leaves the file missing
        q.write_text(text, encoding="utf-8")
    err = run_cli_rejected(capsys, monkeypatch, "query", "--file", str(q))
    assert f"query file {q}" in err


@pytest.mark.parametrize(
    "text, detail",
    [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ('{"durationTicks": "x"}', "durationTicks must be a JSON integer, got 'x'"),
        ('{"durationTicks": 10.9}', "durationTicks must be a JSON integer, got 10.9"),
        ('{"durationTicks": 1e9}', "durationTicks must be a JSON integer, got 1000000000.0"),
        ('{"seed": 1.7}', "seed must be a JSON integer, got 1.7"),
        ('{"seed": false}', "seed must be a JSON integer, got False"),
        ('{"users": {"alice": true}}', "users: level of 'alice' must be a JSON integer, got True"),
        ('{"noiseRate": true}', "noiseRate must be a JSON number, got True"),
        ('{"holdout": "0.2"}', "holdout must be a JSON number, got '0.2'"),
        (
            '{"requests": [{"tick": 2.5, "capability": "reason.activity", "user": "alice"}]}',
            "requests[0].tick must be a JSON integer, got 2.5",
        ),
        (
            '{"faults": [{"tick": 1, "kind": "reason.activity"}, {"tick": -5, "kind": "reason.activity"}]}',
            "faults[1]: tick -5 is outside this run's ticks 0..49",
        ),
        (
            '{"faults": [{"tick": 1, "kind": "reason.activity", "removeTemplate": "false"}]}',
            "faults[0].removeTemplate must be a JSON boolean, got 'false'",
        ),
        (
            '{"faults": [{"tick": 1, "kind": "reason.activity", "removeTemplate": 0}]}',
            "faults[0].removeTemplate must be a JSON boolean, got 0",
        ),
        ('{"faults": [{"tick": 1, "kind": 7}]}', "faults[0].kind must be a JSON string, got 7"),
        (
            '{"requests": [{"tick": 1, "capability": 7, "user": "alice"}]}',
            "requests[0].capability must be a JSON string, got 7",
        ),
        (
            '{"requests": [{"tick": 1, "capability": "reason.activity", "user": "alice"},'
            ' {"tick": 2, "capability": "reason.activity", "user": ["alice"]}]}',
            "requests[1].user must be a JSON string, got ['alice']",
        ),
        ('{"requests": {}}', "requests must be a JSON list, got {}"),
        ('{"faults": ""}', "faults must be a JSON list, got ''"),
        ('{"requests": [{}]}', "requests[0].tick is missing"),
        (
            '{"requests": [{"tick": 1, "user": "alice"}]}',
            "requests[0].capability is missing",
        ),
        ('{"faults": [{"tick": 1}]}', "faults[0].kind is missing"),
        ('{"users": ["alice"]}', "users must be a JSON object"),
        ("[]", "the document must be a JSON object, got []"),
        ('{"requests": [5]}', "requests[0] must be a JSON object, got 5"),
        ('{"requests": [[1, 2]]}', "requests[0] must be a JSON object, got [1, 2]"),
        ('{"faults": ["x"]}', "faults[0] must be a JSON object, got 'x'"),
        ('{"durationTicks": -1}', "durationTicks must not be negative, got -1"),
        pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="deeply-nested"),
        ('{"cvoRuleInterval": 0}', "cvoRuleInterval must be at least 1, got 0"),
        ('{"medicalBatchInterval": -1}', "medicalBatchInterval must be at least 1, got -1"),
        ('{"monitorInterval": 0}', "monitorInterval must be at least 1, got 0"),
        ('{"noiseRate": -1}', "noiseRate must be within [0, 1], got -1.0"),
        ('{"noiseRate": 1.5}', "noiseRate must be within [0, 1], got 1.5"),
        ('{"holdout": 0}', "holdout must be within (0, 1), got 0.0"),
        ('{"holdout": 1.5}', "holdout must be within (0, 1), got 1.5"),
        ('{"users": {}}', "users must name at least one user"),
        ('{"users": {"a": 9}}', "users: level of 'a' must be within 0..3, got 9"),
        ('{"users": {"al ice": 3}}', "users: 'al ice' cannot name a user"),
        ('{"users": {"": 3}}', "users: '' cannot name a user"),
        ('{"users": {"+": 3}}', "users: '+' cannot name a user"),
        ('{"trainInstances": 0}', "trainInstances 0 splits into 0 training and 0 holdout"),
        ('{"trainInstances": 4}', "trainInstances 4 splits into 3 training and 1 holdout"),
        (
            '{"faults": [{"tick": 3, "kind": "reason.nothing"}]}',
            "faults: no service template or instance has kind 'reason.nothing'",
        ),
    ],
)
def test_malformed_scenario_rejected(capsys, monkeypatch, tmp_path, text, detail):
    cfg = tmp_path / "scenario.json"
    if text is not None:  # None leaves the file missing
        cfg.write_text(text, encoding="utf-8")
    err = run_cli_rejected(capsys, monkeypatch, "run", "--config", str(cfg), "--ticks", "50")
    assert detail in err


@pytest.mark.parametrize("name", ["a/b", "a+b"])
def test_user_name_with_slash_or_plus_runs(capsys, tmp_path, name):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"users": {name: 3}}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--ticks", "20")
    assert code == 0
    assert json.loads(out)["scenario"]["users"] == {name: 3}


@pytest.mark.parametrize("key, tick", [("requests", 10), ("requests", 99999), ("faults", 10)])
def test_scripted_tick_past_the_run_rejected(capsys, monkeypatch, tmp_path, key, tick):
    event = {"requests": {"capability": "reason.activity", "user": "alice"},
             "faults": {"kind": "reason.activity"}}[key]
    cfg = tmp_path / "scenario.json"
    doc = {"durationTicks": 10, key: [dict(event, tick=0), dict(event, tick=tick)]}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    err = run_cli_rejected(capsys, monkeypatch, "run", "--config", str(cfg))
    assert err == f"hub: error: {key}[1]: tick {tick} is outside this run's ticks 0..9\n"


def test_ticks_drops_scripted_events_past_the_new_end(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    doc = {"durationTicks": 40, "requests": [
        {"tick": t, "capability": "reason.activity", "user": "alice"} for t in (5, 30)
    ]}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--ticks", "30")
    assert code == 0
    assert [r["tick"] for r in json.loads(out)["requests"]] == [5]


def test_query_past_the_binding_limit_exits_nonzero(capsys, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(
        json.dumps(
            {
                "select": ["?a", "?b", "?c", "?d"],
                "where": [["?a", "?p", "?b"], ["?c", "?q", "?d"]],
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "query", "--file", str(q), "--ticks", "40")
    assert code == 1
    assert out == ""
    assert err == f"hub: error: query needs more than {MAX_BINDINGS} intermediate bindings\n"


def test_query_failing_at_evaluation_exits_nonzero(capsys, tmp_path):
    q = tmp_path / "q.json"
    q.write_text(
        json.dumps(
            {
                "select": ["?v"],
                "where": [["?s", "urn:sem:heartRate", "?v"]],
                "filters": [{"var": "?v", "op": ">", "value": "urn:x:y"}],
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "query", "--file", str(q), "--ticks", "20")
    assert code == 1
    assert out == ""
    assert err == "hub: error: cannot compare an IRI with a literal\n"


def test_request_completed(capsys):
    code, out, _ = run_cli(
        capsys,
        "request",
        "--capability",
        "reason.activity",
        "--user",
        "alice",
        "--ticks",
        "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "completed"
    assert doc["result"] == {"activity": "none"}  # no observations at tick 0


def test_request_unknown_user_exits_nonzero(capsys):
    code, out, _ = run_cli(
        capsys,
        "request",
        "--capability",
        "reason.activity",
        "--user",
        "YOLO",
        "--ticks",
        "0",
    )
    assert code == 1
    assert json.loads(out)["outcome"] == "failed"


@pytest.mark.parametrize("tick", ["-1", "21", str(10**12)])
def test_request_tick_outside_run_rejected(capsys, monkeypatch, tick):
    err = run_cli_rejected(
        capsys,
        monkeypatch,
        "request",
        "--capability",
        "reason.activity",
        "--user",
        "alice",
        "--ticks",
        "20",
        "--tick",
        tick,
    )
    assert err == f"hub: error: tick {tick} is outside this run's ticks 0..20\n"


def test_negative_ticks_rejected(capsys, monkeypatch):
    err = run_cli_rejected(
        capsys,
        monkeypatch,
        "request",
        "--capability",
        "reason.activity",
        "--user",
        "alice",
        "--ticks",
        "-1",
    )
    assert err == "hub: error: durationTicks must not be negative, got -1\n"


def test_request_at_last_tick(capsys):
    code, out, _ = run_cli(
        capsys,
        "request",
        "--capability",
        "reason.activity",
        "--user",
        "alice",
        "--ticks",
        "20",
        "--tick",
        "20",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tick"] == 20
    assert doc["outcome"] == "completed"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_serve_port_out_of_range_rejected_before_run(capsys, monkeypatch):
    def ran(self):
        raise AssertionError("the scenario ran before the port was checked")

    monkeypatch.setattr(Hub, "run", ran)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--port", "70000", "--ticks", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --port: must be an integer 0-65535, got '70000'" in err


def test_serve_returns_on_keyboard_interrupt(capsys, monkeypatch):
    """An interrupt while serving stops the gateway, closes the connection
    it came in on, and `hub serve` returns 0 with nothing left open."""

    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(Hub, "services_overview", interrupted)
    serve = GatewayServer.serve_forever
    seen, clients = [], []

    def client(server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/services")  # interrupts the loop as it answers
            conn.getresponse()
        except (OSError, http.client.HTTPException) as exc:
            seen.append(exc)
        else:
            server.stop()  # the interrupt never came: end `hub serve` anyway
        finally:
            conn.close()

    def serving(server):
        clients.append(threading.Thread(target=client, args=(server,)))
        clients[0].start()
        serve(server)

    monkeypatch.setattr(GatewayServer, "serve_forever", serving)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["serve", "--port", "0", "--ticks", "0"]) == 0
        clients[0].join(timeout=10)
        gc.collect()
    assert not clients[0].is_alive()
    assert "hub gateway listening on port" in capsys.readouterr().err
    assert [type(exc) for exc in seen] == [http.client.RemoteDisconnected]
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_serve_port_in_use_rejected_before_run(capsys, monkeypatch):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        err = run_cli_rejected(capsys, monkeypatch, "serve", "--port", str(port), "--ticks", "0")
    assert err.startswith(f"hub: error: cannot serve on port {port}: ")
