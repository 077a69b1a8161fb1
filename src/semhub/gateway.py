"""Thin HTTP front for a hub: JSON in, JSON out, no framework.

Routes:
    POST /requests          {"capability": str, "user": str, "tick"?: int}
    POST /queries           query document (select/where/filters/graphs)
    GET  /objects           registered object overview
    GET  /objects/{iri}     one object's description and recent readings
    GET  /services          microservice descriptors
    GET  /report            the full scenario report

The server binds a running `Hub`; it never drives the tick loop itself.

Threading: the server runs each connection on its own thread, and no part
of the hub takes a lock.  So the server holds one lock around every hub
call its handlers make, and those calls run one at a time; it never holds
the lock while it reads a body or writes a response.  `Hub.run` takes no
lock, so nothing may serve while the loop ticks: `hub serve` starts serving
only after `run()` returns, and a caller that serves from inside a tick
keeps the loop paused until the server has stopped.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

from .errors import HubError, MalformedIri, TickOutOfRange
from .hub import Hub

MAX_BODY_BYTES = 1 << 20  # a request or query document is a few hundred bytes
SOCKET_TIMEOUT_S = 5  # a client that stalls mid-request frees its server thread


class _BodyRefused(Exception):
    """A body the handler will not read, answered with `status`."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    hub: Hub  # bound per-server via a subclass attribute
    hub_lock: threading.Lock  # bound with `hub`; held around each hub call

    def _locked(self, call, *args):
        with self.hub_lock:
            return call(*args)

    # keep test output quiet
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send(self, code: int, doc) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            raise ValueError(f"Content-Length must be a non-negative integer, got {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _BodyRefused(413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            raise _BodyRefused(408, f"body not received within {self.timeout} s") from None
        if len(raw) < length:
            raise ValueError(f"body ended after {len(raw)} of the {length} bytes in Content-Length")
        if not raw:
            return {}
        try:
            doc = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise ValueError("body is nested too deeply to decode") from None
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def do_GET(self):  # noqa: N802 - stdlib naming
        path = unquote(self.path)
        if path == "/report":
            return self._send(200, self._locked(self.hub.report))
        if path == "/objects":
            return self._send(200, self._locked(self.hub.objects_overview))
        if path.startswith("/objects/"):
            iri = path[len("/objects/"):]
            try:
                detail = self._locked(self.hub.object_detail, iri)
            except MalformedIri as exc:
                return self._send(400, {"error": str(exc)})
            if detail is None:
                return self._send(404, {"error": f"unknown object {iri}"})
            return self._send(200, detail)
        if path == "/services":
            return self._send(200, self._locked(self.hub.services_overview))
        self._send(404, {"error": f"no route {path}"})

    def do_POST(self):  # noqa: N802 - stdlib naming
        try:
            doc = self._read_body()
        except _BodyRefused as exc:
            return self._send(exc.status, {"error": str(exc)})
        except ValueError as exc:  # also malformed JSON and UTF-8
            return self._send(400, {"error": str(exc)})
        if self.path == "/requests":
            capability = doc.get("capability")
            user = doc.get("user")
            if not capability or not user:
                return self._send(400, {"error": "capability and user are required"})
            for key, value in (("capability", capability), ("user", user)):
                if type(value) is not str:  # str() would make any value a name
                    error = f"{key} must be a JSON string, got {json.dumps(value)}"
                    return self._send(400, {"error": error})
            tick = doc.get("tick")
            if tick is not None and type(tick) is not int:  # bool is an int subclass
                error = f"tick must be a JSON integer, got {json.dumps(tick)}"
                return self._send(400, {"error": error})
            try:
                record = self._locked(self.hub.submit_request, capability, user, tick)
            except TickOutOfRange as exc:
                return self._send(400, {"error": str(exc)})
            return self._send(200, record)
        if self.path == "/queries":
            try:
                answer = self._locked(self.hub.run_query, doc)
            except (HubError, KeyError, ValueError) as exc:
                return self._send(400, {"error": str(exc)})
            return self._send(200, answer)
        self._send(404, {"error": f"no route {self.path}"})


class GatewayServer:
    """Serves one hub on a background thread; port 0 picks a free port."""

    def __init__(self, hub: Hub, host: str = "127.0.0.1", port: int = 0):
        bound = {"hub": hub, "hub_lock": threading.Lock(), "timeout": SOCKET_TIMEOUT_S}
        handler = type("_BoundHandler", (_Handler,), bound)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "GatewayServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="hub-gateway", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
            self._thread.join(timeout=5)
            self._thread = None
