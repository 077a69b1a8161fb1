"""Thin HTTP front for a hub: JSON in, JSON out, no framework.

Routes:
    POST /requests          {"capability": str, "user": str, "tick"?: int}
    POST /queries           query document (select/where/filters/graphs)
    GET  /objects           registered object overview
    GET  /objects/{iri}     one object's description and recent readings
    GET  /services          microservice descriptors
    GET  /report            the full scenario report

The server binds a running `Hub`; it never drives the tick loop itself.

Serving: one `selectors` loop on the serving thread accepts connections
without blocking and reads each request into a buffer of its own.  Once the
head and the `Content-Length` body it announces have arrived, the loop runs
the handler on the buffered bytes and writes the answer without blocking,
then closes the connection.  So every hub call is made by that one thread,
one at a time, and no lock is needed.  Each connection has one deadline,
`SOCKET_TIMEOUT_S` from accept, for its whole head and body, and a new one
for the write of its answer; at most `MAX_CONNECTIONS` are open at once.
When the loop ends, by `stop()` or by an exception, it closes the listener
and every connection itself, so nothing is closed under a running route.
`Hub.run` takes no lock, so nothing may serve while the loop ticks: `hub
serve` starts serving only after `run()` returns, and a caller that serves
from inside a tick keeps the loop paused until the server has stopped.
"""

from __future__ import annotations

import io
import json
import re
import selectors
import socket
import threading
import traceback
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler
from time import monotonic
from urllib.parse import unquote

from .errors import HubError, MalformedIri, TickOutOfRange
from .hub import Hub

MAX_BODY_BYTES = 1 << 20  # a request or query document is a few hundred bytes
MAX_HEAD_BYTES = 1 << 16  # the request line and headers together
SOCKET_TIMEOUT_S = 5  # to receive a whole request, and again to send its answer
MAX_CONNECTIONS = 64  # open at once; one past it is answered 503 and closed
ACCEPT_RETRY_S = 0.1  # pause after accept fails other than for want of a client

_MAX_LENGTH_DIGITS = 20  # of a Content-Length; int() refuses to parse thousands
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_CONTENT_LENGTH = re.compile(rb"\ncontent-length:[ \t]*([^\r\n]*)", re.IGNORECASE)


def _request_size(buf: bytearray, start: int) -> int | None:
    """Bytes the request in `buf` fills: its head plus the body its
    Content-Length announces, or 0 when that value is bad or oversized, so
    the handler refuses it at once; None while the head, which does not end
    before `start`, is still arriving."""
    end = _HEAD_END.search(buf, start)
    if end is None:
        return None
    length = _CONTENT_LENGTH.search(buf, 0, end.end())
    value = length[1] if length else b"0"
    if not value.isdigit() or len(value) > _MAX_LENGTH_DIGITS or int(value) > MAX_BODY_BYTES:
        return 0
    return end.end() + int(value)


def _error(code: int, message: str) -> bytes:
    """A whole answer carrying `{"error": message}`, for the loop to send."""
    body = json.dumps({"error": message}).encode("utf-8")
    head = (
        f"HTTP/1.0 {code} {HTTPStatus(code).phrase}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class _Conn:
    """One accepted connection: its request bytes, then its answer's."""

    __slots__ = ("sock", "addr", "buf", "need", "out", "deadline")

    def __init__(self, sock: socket.socket, addr, deadline: float):
        self.sock = sock
        self.addr = addr
        self.buf = bytearray()
        self.need: int | None = None  # the request's size, once its head is in
        self.out: memoryview | None = None  # the answer left to send
        self.deadline = deadline


class _BodyRefused(Exception):
    """A body the handler will not read, answered with `status`."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Answers one request, read from its buffered bytes (`request`) into
    an in-memory `wfile` that the serving loop then sends."""

    hub: Hub  # bound per-server via a subclass attribute

    def setup(self):
        self.rfile, self.wfile = self.request, io.BytesIO()

    def finish(self):
        pass  # the loop reads the answer out of `wfile`

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
        if len(header) > _MAX_LENGTH_DIGITS:
            raise _BodyRefused(413, f"a Content-Length of {len(header)} digits exceeds the {MAX_BODY_BYTES}-byte limit")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _BodyRefused(413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
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
            return self._send(200, self.hub.report())
        if path == "/objects":
            return self._send(200, self.hub.objects_overview())
        if path.startswith("/objects/"):
            iri = path[len("/objects/"):]
            try:
                detail = self.hub.object_detail(iri)
            except MalformedIri as exc:
                return self._send(400, {"error": str(exc)})
            if detail is None:
                return self._send(404, {"error": f"unknown object {iri}"})
            return self._send(200, detail)
        if path == "/services":
            return self._send(200, self.hub.services_overview())
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
                record = self.hub.submit_request(capability, user, tick)
            except TickOutOfRange as exc:
                return self._send(400, {"error": str(exc)})
            return self._send(200, record)
        if self.path == "/queries":
            try:
                answer = self.hub.run_query(doc)
            except (HubError, KeyError, ValueError) as exc:
                return self._send(400, {"error": str(exc)})
            return self._send(200, answer)
        self._send(404, {"error": f"no route {self.path}"})


class GatewayServer:
    """Serves one hub from one thread; port 0 picks a free port."""

    def __init__(self, hub: Hub, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.port: int = self._listener.getsockname()[1]
        self._handler = type("_BoundHandler", (_Handler,), {"hub": hub})
        self._wake, self._woken = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._woken, selectors.EVENT_READ)
        self._conns: set[_Conn] = set()
        self._accept_at: float | None = None  # when to watch the listener again
        self._stopping = False
        self._closed: threading.Event | None = None  # set when the serving loop has closed all

    def start(self) -> "GatewayServer":
        threading.Thread(target=self.serve_forever, name="hub-gateway", daemon=True).start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until `stop()` or an exception such as
        KeyboardInterrupt; either way, close the listener and every
        connection before returning."""
        self._closed = closed = threading.Event()
        try:
            while not self._stopping:
                waits = [c.deadline for c in self._conns]
                if self._accept_at is not None:
                    waits.append(self._accept_at)
                timeout = max(min(waits) - monotonic(), 0) if waits else None
                for key, _ in self._selector.select(timeout):
                    conn = key.data
                    if conn is None:  # the listener, or the wake socket `stop()` writes to
                        if key.fileobj is self._listener:
                            self._accept()
                    elif conn.out is None:
                        self._read(conn)
                    else:
                        self._write(conn)
                now = monotonic()
                if self._accept_at is not None and self._accept_at <= now:
                    self._accept_at = None
                    self._selector.register(self._listener, selectors.EVENT_READ)
                for conn in [c for c in self._conns if c.deadline <= now]:
                    self._expire(conn)
        finally:
            self._close_all()
            closed.set()

    def stop(self) -> None:
        """Stop serving and return once the listener and every open
        connection are closed: by the serving loop, or here if none ran."""
        self._stopping = True
        if self._closed is None:
            return self._close_all()
        try:
            self._wake.send(b"\0")
        except OSError:  # the loop has closed it on its way out
            pass
        self._closed.wait()

    def _close_all(self) -> None:
        for conn in list(self._conns):
            self._close(conn)
        for sock in (self._listener, self._woken, self._wake):
            sock.close()
        self._selector.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except BlockingIOError:  # none left
                return
            except OSError:  # none to be had, e.g. out of descriptors: retry later, not at once
                self._selector.unregister(self._listener)
                self._accept_at = monotonic() + ACCEPT_RETRY_S
                return
            sock.setblocking(False)
            if len(self._conns) >= MAX_CONNECTIONS:
                with sock:
                    try:
                        sock.send(_error(503, f"the gateway already holds {MAX_CONNECTIONS} connections"))
                    except OSError:
                        pass
                continue
            conn = _Conn(sock, addr, monotonic() + SOCKET_TIMEOUT_S)
            self._conns.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            return self._close(conn)
        conn.buf += data
        if conn.need is None:
            conn.need = _request_size(conn.buf, max(len(conn.buf) - len(data) - 3, 0))
        if not data or (conn.need is not None and len(conn.buf) >= conn.need):
            self._serve(conn)  # at EOF, whatever came
        elif conn.need is None and len(conn.buf) > MAX_HEAD_BYTES:
            self._reply(conn, _error(431, f"request head exceeds {MAX_HEAD_BYTES} bytes"))

    def _expire(self, conn: _Conn) -> None:
        if conn.out is not None:  # the client is not taking its answer
            self._close(conn)
        elif conn.need is not None:  # the head came, the body stalled
            self._reply(conn, _error(408, f"body not received within {SOCKET_TIMEOUT_S} s"))
        else:
            self._reply(conn, _error(408, f"request head not received within {SOCKET_TIMEOUT_S} s"))

    def _serve(self, conn: _Conn) -> None:
        try:
            answer = self._handler(io.BytesIO(conn.buf), conn.addr, self).wfile.getvalue()
        except Exception:  # a bug in a route: report it and keep serving the rest
            traceback.print_exc()
            answer = _error(500, "internal error")
        self._reply(conn, answer)

    def _reply(self, conn: _Conn, answer: bytes) -> None:
        if not answer:  # nothing was asked
            return self._close(conn)
        conn.out = memoryview(answer)
        conn.deadline = monotonic() + SOCKET_TIMEOUT_S
        self._write(conn)
        if conn in self._conns:  # the rest goes when the client reads
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _write(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError:
            return self._close(conn)
        conn.out = conn.out[sent:]
        if not conn.out:
            self._close(conn)

    def _close(self, conn: _Conn) -> None:
        self._conns.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()
