"""The `hub` CLI, invoked in-process for speed."""

import json

import pytest

from semhub.cli import main
from semhub.hub import Hub


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
        ('{"durationTicks": "x"}', "invalid literal for int()"),
        ('{"requests": [{}]}', "missing key 'tick'"),
        ('{"users": ["alice"]}', "has no attribute 'items'"),
    ],
)
def test_malformed_scenario_rejected(capsys, monkeypatch, tmp_path, text, detail):
    cfg = tmp_path / "scenario.json"
    if text is not None:  # None leaves the file missing
        cfg.write_text(text, encoding="utf-8")
    err = run_cli_rejected(capsys, monkeypatch, "run", "--config", str(cfg))
    assert detail in err


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


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
