"""HTTP gateway routes against a live hub."""

import ast
import gc
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings
from pathlib import Path

import pytest

import semhub
from semhub.gateway import MAX_BODY_BYTES, MAX_HEAD_BYTES, GatewayServer
from semhub.hub import Hub, ScenarioConfig
from semhub.semantic import MAX_BINDINGS, MAX_QUERY_PATTERNS


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


@pytest.mark.parametrize("path", ["/objects/nope", "/objects/has%20space"])
def test_object_detail_malformed_iri_is_400(served, path):
    _, base = served
    status, doc = _get(base + path)
    assert status == 400
    assert doc["error"].startswith("not an absolute IRI")
    # the connection was answered, not dropped, and the server still serves
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


@pytest.mark.parametrize(
    "body, error",
    [
        ({"capability": ["reason.activity"], "user": "alice"},
         'capability must be a JSON string, got ["reason.activity"]'),
        ({"capability": "reason.activity", "user": 7}, "user must be a JSON string, got 7"),
        ({"capability": True, "user": {"name": "alice"}}, "capability must be a JSON string, got true"),
    ],
)
def test_submit_request_rejects_names_that_are_not_strings(served, body, error):
    hub, base = served
    before = len(hub.report()["requests"])
    status, doc = _post(base + "/requests", body)
    assert status == 400 and doc == {"error": error}
    assert len(hub.report()["requests"]) == before  # nothing recorded


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


@pytest.mark.parametrize("tick", [-1, 61, 10**12])
def test_submit_request_rejects_tick_outside_run(served, tick):
    hub, base = served
    before = hub.report()
    status, doc = _post(
        base + "/requests",
        {"capability": "reason.activity", "user": "alice", "tick": tick},
    )
    assert status == 400
    assert doc["error"] == f"tick {tick} is outside this run's ticks 0..60"
    after = hub.report()
    assert after["requests"] == before["requests"]
    assert after["resolution"] == before["resolution"]
    # the connection was answered, not dropped, and the server still serves
    status, record = _post(
        base + "/requests",
        {"capability": "reason.activity", "user": "alice", "tick": 12},
    )
    assert status == 200
    assert record["outcome"] == "completed"
    assert record["id"] == f"req-{len(before['requests']) + 1:04d}"


def test_submit_request_at_last_tick(served):
    _, base = served
    status, record = _post(
        base + "/requests",
        {"capability": "reason.activity", "user": "alice", "tick": 60},
    )
    assert status == 200
    assert record["tick"] == 60
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


def test_hub_calls_from_the_gateway_run_one_at_a_time(served, monkeypatch):
    hub, base = served
    guard = threading.Lock()
    inside = peak = calls = 0

    def counted(call):
        def wrapper(*args):
            nonlocal inside, peak, calls
            with guard:
                inside += 1
                calls += 1
                peak = max(peak, inside)
            try:
                time.sleep(0.05)
                return call(*args)
            finally:
                with guard:
                    inside -= 1

        return wrapper

    monkeypatch.setattr(hub, "submit_request", counted(hub.submit_request))
    monkeypatch.setattr(hub, "run_query", counted(hub.run_query))
    query = {
        "select": ["?vo"],
        "where": [["?vo", "urn:sem:type", "urn:sem:class:ZoneBeacon"]],
        "graphs": ["urn:sem:graph:vo:smart-office:beacon:alice"],
    }
    request = {"capability": "reason.activity", "user": "alice"}
    posts = [("/requests", request), ("/requests", request), ("/queries", query), ("/queries", query)]
    start = threading.Barrier(len(posts))
    statuses = []

    def client(path, doc):
        start.wait(timeout=10)
        statuses.append(_post(base + path, doc)[0])

    threads = [threading.Thread(target=client, args=post) for post in posts]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert statuses == [200] * len(posts)
    assert (calls, peak) == (len(posts), 1)


def test_only_the_gateway_imports_threading():
    """No module takes a lock: the gateway's one serving loop makes every
    hub call, so they run one at a time, and the gateway imports threading
    only for `start()` to serve on a background thread and for `stop()` to
    wait until the loop has closed everything."""
    importers = []
    for path in sorted(Path(semhub.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] in ("threading", "_thread") for n in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["gateway.py"]


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


def test_query_route_refuses_queries_past_the_pattern_bound(served):
    _, base = served
    where = [["?s", "urn:sem:type", f"?o{i}"] for i in range(10_000)]
    status, doc = _post(base + "/queries", {"select": ["?s"], "where": where})
    assert status == 400
    assert doc["error"] == f"where holds 10000 patterns; a query may hold at most {MAX_QUERY_PATTERNS}"


@pytest.mark.parametrize("value", [None, ["nested"]], ids=json.dumps)
def test_query_route_rejects_null_and_list_literals(served, value):
    _, base = served
    status, doc = _post(
        base + "/queries",
        {
            "select": ["?s"],
            "where": [["?s", "urn:sem:heartRate", "?v"]],
            "filters": [{"var": "?v", "op": ">", "value": {"value": value, "type": "decimal"}}],
        },
    )
    assert status == 400
    assert "must be a JSON string, boolean or number" in doc["error"]
    _assert_query_served(base)


def _post_raw(base, content_length, body=b"", end_body=False):
    """POST whose headers claim `content_length` body bytes but send only
    `body`; with `end_body` the client then shuts its side for writing."""
    port = urllib.parse.urlsplit(base).port
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            (
                "POST /queries HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n\r\n"
            ).encode("ascii")
            + body
        )
        if end_body:
            sock.shutdown(socket.SHUT_WR)
        return _answer(sock)


def _answer(sock):
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    return resp.status, json.loads(resp.read().decode("utf-8"))


def _assert_query_served(base):
    # the last connection was answered, not dropped, and the server still serves
    got, doc = _post(
        base + "/queries",
        {"select": ["?vo"], "where": [["?vo", "urn:sem:type", "urn:sem:class:ZoneBeacon"]]},
    )
    assert got == 200
    assert doc["count"] >= 1


@pytest.mark.parametrize(
    "content_length, status, detail",
    [
        ("99999999999", 413, "body of 99999999999 bytes exceeds"),
        (str(MAX_BODY_BYTES + 1), 413, "-byte limit"),
        ("-5", 400, "Content-Length must be a non-negative integer, got '-5'"),
        ("ten", 400, "Content-Length must be a non-negative integer, got 'ten'"),
    ],
)
def test_request_body_length_is_bounded(served, content_length, status, detail):
    _, base = served
    got, doc = _post_raw(base, content_length)
    assert got == status
    assert detail in doc["error"]
    _assert_query_served(base)


def test_content_length_too_long_to_parse_is_413(served):
    """int() refuses thousands of digits; the loop and the handler both
    refuse the value by its length first, and serving goes on."""
    _, base = served
    got, doc = _post_raw(base, "9" * 5000)
    assert got == 413
    assert doc["error"] == f"a Content-Length of 5000 digits exceeds the {MAX_BODY_BYTES}-byte limit"
    _assert_query_served(base)


def test_stalled_body_times_out(served, monkeypatch):
    monkeypatch.setattr("semhub.gateway.SOCKET_TIMEOUT_S", 0.2)
    server = GatewayServer(served[0]).start()
    base = f"http://127.0.0.1:{server.port}"
    try:
        started = time.monotonic()
        got, doc = _post_raw(base, 100, body=b"{}")
        assert time.monotonic() - started < 5  # the client itself waits 10 s
        assert got == 408
        assert doc["error"] == "body not received within 0.2 s"
        _assert_query_served(base)
    finally:
        server.stop()


def test_body_ending_early_is_400(served):
    _, base = served
    got, doc = _post_raw(base, 100, body=b"{}", end_body=True)
    assert got == 400
    assert doc["error"] == "body ended after 2 of the 100 bytes in Content-Length"
    _assert_query_served(base)


def test_deeply_nested_body_is_400(served):
    _, base = served
    body = b"[" * 100_000  # well under the body cap
    got, doc = _post_raw(base, len(body), body=body)
    assert got == 400
    assert doc["error"] == "body is nested too deeply to decode"
    _assert_query_served(base)


def test_cross_product_query_is_refused():
    hub = Hub(ScenarioConfig(duration_ticks=40))
    hub.run()
    server = GatewayServer(hub).start()
    try:
        cross = {
            "select": ["?a", "?b", "?c", "?d"],
            "where": [["?a", "?p", "?b"], ["?c", "?q", "?d"]],
        }
        started = time.monotonic()
        got, doc = _post(f"http://127.0.0.1:{server.port}/queries", cross)
        assert time.monotonic() - started < 1
        assert got == 400
        assert doc["error"] == f"query needs more than {MAX_BINDINGS} intermediate bindings"
    finally:
        server.stop()
        hub.close()


def test_unknown_route_is_404(served):
    _, base = served
    status, doc = _get(base + "/nothing/here")
    assert status == 404


def test_request_target_is_percent_decoded_for_every_method(served):
    _, base = served
    status, doc = _get(base + "/%72eport")
    assert status == 200 and doc["scenario"]["durationTicks"] == 60
    query = {"select": ["?vo"], "where": [["?vo", "urn:sem:type", "urn:sem:class:ZoneBeacon"]]}
    status, doc = _post(base + "/%71ueries", query)
    assert status == 200 and doc["count"] >= 1


FIELDS = b"".join(b"X-Field-%d: a\r\n" % i for i in range(101))


@pytest.mark.parametrize(
    "request_bytes, status, error",
    [
        (b"garbage\r\n\r\n", 400, "bad request line 'garbage'"),
        (b"GET /report HTTP/9.9\r\n\r\n", 400, "bad request line 'GET /report HTTP/9.9'"),
        (b"PUT /report HTTP/1.0\r\n\r\n", 501, "method PUT is not supported"),
        (b"GET /services HTTP/1.0\r\n" + FIELDS + b"\r\n", 431, "request head holds more than 99 header fields"),
    ],
    ids=["garbage", "version-9.9", "put", "101-fields"],
)
def test_refused_requests_are_answered_as_json(served, request_bytes, status, error):
    _, base = served
    port = urllib.parse.urlsplit(base).port
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request_bytes)
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        assert resp.status == status
        assert resp.getheader("Content-Type") == "application/json"
        assert json.loads(resp.read().decode("utf-8")) == {"error": error}
    _assert_query_served(base)


BEACONS = b'{"select": ["?vo"], "where": [["?vo", "urn:sem:type", "urn:sem:class:ZoneBeacon"]]}'
QUERY = b"POST /queries HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%b" % (len(BEACONS), BEACONS)


def test_connections_past_the_cap_are_refused(served, monkeypatch):
    monkeypatch.setattr("semhub.gateway.MAX_CONNECTIONS", 2)
    server = GatewayServer(served[0]).start()
    address = ("127.0.0.1", server.port)
    try:
        with socket.create_connection(address, timeout=10) as first, socket.create_connection(address, timeout=10):
            with socket.create_connection(address, timeout=10) as third:
                assert _answer(third) == (503, {"error": "the gateway already holds 2 connections"})
            # the connections within the cap are still served
            first.sendall(QUERY)
            status, doc = _answer(first)
            assert status == 200 and doc["count"] >= 1
        # and closed ones free their places
        _assert_query_served(f"http://127.0.0.1:{server.port}")
    finally:
        server.stop()


def test_trickled_head_is_closed_at_the_deadline(served, monkeypatch):
    monkeypatch.setattr("semhub.gateway.SOCKET_TIMEOUT_S", 0.3)
    server = GatewayServer(served[0]).start()
    answer = b""
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=0.1) as sock:
            started = time.monotonic()
            for byte in QUERY:  # one byte every 0.1 s, as long as the server listens
                try:
                    sock.sendall(bytes([byte]))
                    chunk = sock.recv(4096)
                except TimeoutError:
                    continue
                except ConnectionError:
                    break
                if not chunk:
                    break
                answer += chunk
            elapsed = time.monotonic() - started
    finally:
        server.stop()
    assert elapsed < 1  # the whole head, not each byte, had 0.3 s
    # the answer may be lost to a reset when a byte crosses the close
    assert not answer or answer.startswith(b"HTTP/1.0 408 "), answer


def test_stalled_clients_do_not_hold_up_others(served, monkeypatch):
    """A client that sends nothing, and two that never read their answers,
    do not delay a query: one answer fits the socket buffers, the other, cut
    down by small buffers, waits on the loop until its write deadline."""
    monkeypatch.setattr("semhub.gateway.SOCKET_TIMEOUT_S", 0.5)
    create_server = socket.create_server

    def small_send_buffers(*args, **kwargs):
        listener = create_server(*args, **kwargs)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)  # accepted sockets inherit it
        return listener

    monkeypatch.setattr(socket, "create_server", small_send_buffers)
    server = GatewayServer(served[0]).start()
    address = ("127.0.0.1", server.port)
    everything = json.dumps({"select": ["?s", "?p", "?o"], "where": [["?s", "?p", "?o"]]}).encode("utf-8")
    try:
        with socket.create_connection(address, timeout=10), \
                socket.create_connection(address, timeout=10) as report, \
                socket.socket() as large:
            report.sendall(b"GET /report HTTP/1.0\r\n\r\n")
            large.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            large.settimeout(10)
            large.connect(address)
            large.sendall(b"POST /queries HTTP/1.0\r\nContent-Length: %d\r\n\r\n%b" % (len(everything), everything))
            time.sleep(0.1)  # let the loop take these in first
            started = time.monotonic()
            _assert_query_served(f"http://127.0.0.1:{server.port}")
            assert time.monotonic() - started < 1
            time.sleep(1)  # past the large answer's write deadline
            received = b""
            while chunk := large.recv(1 << 16):
                received += chunk
        full = json.dumps(served[0].run_query(json.loads(everything)), sort_keys=True).encode("utf-8")
        assert received.startswith(b"HTTP/1.0 200 ") and len(received) < len(full)
    finally:
        server.stop()


def test_oversized_head_is_431(served):
    _, base = served
    port = urllib.parse.urlsplit(base).port
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        head = b"GET /report HTTP/1.1\r\nX-Padding: "
        sock.sendall(head + b"a" * (MAX_HEAD_BYTES + 1 - len(head)))
        assert _answer(sock) == (431, {"error": f"request head exceeds {MAX_HEAD_BYTES} bytes"})
    _assert_query_served(base)


def test_a_failing_route_is_500_and_serving_goes_on(served, monkeypatch, capsys):
    hub, base = served

    def broken():
        raise RuntimeError("report broke")

    monkeypatch.setattr(hub, "report", broken)
    assert _get(base + "/report") == (500, {"error": "internal error"})
    assert "RuntimeError: report broke" in capsys.readouterr().err
    _assert_query_served(base)


def test_an_answer_that_is_not_json_is_500_and_serving_goes_on(served, monkeypatch, capsys):
    hub, base = served
    monkeypatch.setattr(hub, "services_overview", lambda: [object()])
    assert _get(base + "/services") == (500, {"error": "internal error"})
    assert "is not JSON serializable" in capsys.readouterr().err
    _assert_query_served(base)


def test_stop_closes_the_listener_and_every_connection(served):
    server = GatewayServer(served[0]).start()
    address = ("127.0.0.1", server.port)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with socket.create_connection(address, timeout=5) as idle, \
                socket.create_connection(address, timeout=5) as partial:
            partial.sendall(QUERY[:40])
            # served after the two, so both are open on the server's side
            _assert_query_served(f"http://127.0.0.1:{server.port}")
            server.stop()
            assert idle.recv(1) == b"" and partial.recv(1) == b""
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()
        del server
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_stop_waits_for_a_loop_on_another_thread(served, monkeypatch):
    """`stop()` from a second thread, while a loop that `start()` did not
    make runs a route, closes nothing under it: the route's answer goes out,
    then the loop closes everything and returns without an error."""
    hub = served[0]
    entered, release = threading.Event(), threading.Event()

    def slow_services():
        entered.set()
        release.wait(10)
        return []

    monkeypatch.setattr(hub, "services_overview", slow_services)
    server = GatewayServer(hub)
    errors = []

    def serve():
        try:
            server.serve_forever()
        except BaseException as exc:  # noqa: BLE001 - any escape is the failure
            errors.append(exc)

    loop = threading.Thread(target=serve)
    loop.start()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"GET /services HTTP/1.0\r\n\r\n")
            assert entered.wait(10)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(0.2)
            assert stopper.is_alive()  # waiting for the route
            release.set()
            stopper.join(10)
            assert _answer(sock) == (200, [])
    finally:
        release.set()
        server.stop()
        loop.join(10)
    assert not stopper.is_alive() and not loop.is_alive()
    assert errors == []
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", server.port), timeout=5).close()


def test_failing_accept_does_not_spin(served, monkeypatch):
    """While accept fails for want of descriptors, the loop stops watching
    the listener for a while instead of retrying at once, then serves."""
    create_server = socket.create_server
    calls = []

    class OutOfDescriptors:
        def __init__(self, listener):
            self._listener = listener
            self._until = time.monotonic() + 0.3

        def __getattr__(self, name):
            return getattr(self._listener, name)

        def accept(self):
            calls.append(None)
            if time.monotonic() < self._until:
                raise OSError(24, "Too many open files")
            return self._listener.accept()

    monkeypatch.setattr(socket, "create_server", lambda *a, **kw: OutOfDescriptors(create_server(*a, **kw)))
    server = GatewayServer(served[0]).start()
    try:
        started = time.monotonic()
        _assert_query_served(f"http://127.0.0.1:{server.port}")
        assert time.monotonic() - started < 1
    finally:
        server.stop()
    assert len(calls) < 20  # a retry every ACCEPT_RETRY_S, not thousands
