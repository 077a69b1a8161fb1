"""Thin HTTP front for a hub: JSON in, JSON out, no framework.

Routes:
    POST /requests          {"capability": str, "user": str, "tick"?: int}
    POST /queries           query document (select/where/filters/graphs)
    GET  /objects           registered object overview
    GET  /objects/{iri}     one object's description and recent readings
    GET  /services          microservice descriptors
    GET  /report            the full scenario report

The server binds a running `Hub`; it never drives the tick loop itself.

Every answer, refusals included, is an HTTP/1.0 JSON document, a refusal
`{"error": message}`:
    200  the route's answer
    400  a request line that is not `METHOD SP target SP HTTP/1.0|1.1`, a
         bad `Content-Length`, a body that ends before it, a body that is
         not a JSON object, or a request or query the hub refuses
    404  no such route, or no such object
    408  the head or body did not arrive within `SOCKET_TIMEOUT_S`
    413  a `Content-Length` over `MAX_BODY_BYTES`
    431  a head over `MAX_HEAD_BYTES`, or with more than 99 header fields
    500  a route failed; its traceback goes to stderr
    501  a method other than GET and POST
    503  `MAX_CONNECTIONS` are already open

Serving: one `selectors` loop on the serving thread accepts connections
without blocking and reads each request into a buffer of its own.  The loop
parses the head once, as soon as it has arrived, waits for the
`Content-Length` body it announces, runs the route and writes the answer
without blocking, then closes the connection.  So every hub call is made by
that one thread, one at a time, and no lock is needed.  Each connection has
one deadline, `SOCKET_TIMEOUT_S` from accept, for its whole head and body,
and a new one for the write of its answer; at most `MAX_CONNECTIONS` are
open at once.  When the loop ends, by `stop()` or by an exception, it
closes the listener and every connection itself, so nothing is closed
under a running route.  `Hub.run` takes no lock, so nothing may serve while
the loop ticks: `hub serve` starts serving only after `run()` returns, and
a caller that serves from inside a tick keeps the loop paused until the
server has stopped.
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
from http.client import HTTPException, parse_headers
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
_REQUEST_LINE = re.compile(r"(\S+) (\S+) HTTP/1\.[01]")  # RFC 9112 section 3


def _answer(status: int, doc) -> bytes:
    """The whole answer that carries `doc`, for the loop to send."""
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class _Conn:
    """One accepted connection: its request bytes, then its answer's."""

    __slots__ = ("sock", "buf", "handler", "out", "deadline")

    def __init__(self, sock: socket.socket, deadline: float):
        self.sock = sock
        self.buf = bytearray()  # the head, then, once it is parsed, the body
        self.handler: _Handler | None = None  # the parsed head
        self.out: memoryview | None = None  # the answer left to send
        self.deadline = deadline


class _Refused(Exception):
    """A request answered with `status` and no route run."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler:
    """One request, parsed once from its head: `method`, the decoded target
    (`path`), `headers` and the body's `length`.  The loop sets `body` once
    it is in and runs `do_GET` or `do_POST`, which return (status, doc).
    `bench/tracing.py` wraps `do_POST` and reads `headers.get`."""

    def __init__(self, hub: Hub, head: bytes):
        if len(head) > MAX_HEAD_BYTES:
            raise _Refused(431, f"request head exceeds {MAX_HEAD_BYTES} bytes")
        line, _, fields = head.partition(b"\n")
        line = line.rstrip(b"\r").decode("iso-8859-1")
        request = _REQUEST_LINE.fullmatch(line)
        if request is None:
            raise _Refused(400, f"bad request line {line!r}")
        self.method, target = request.groups()
        if self.method not in ("GET", "POST"):
            raise _Refused(501, f"method {self.method} is not supported")
        self.path = unquote(target)
        try:
            self.headers = parse_headers(io.BytesIO(fields))
        except HTTPException:  # the stdlib caps a head at 100 lines, its blank one included
            raise _Refused(431, "request head holds more than 99 header fields") from None
        length = self.headers.get("Content-Length") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _Refused(400, f"Content-Length must be a non-negative integer, got {length!r}")
        if len(length) > _MAX_LENGTH_DIGITS:
            raise _Refused(413, f"a Content-Length of {len(length)} digits exceeds the {MAX_BODY_BYTES}-byte limit")
        self.length = int(length)
        if self.length > MAX_BODY_BYTES:
            raise _Refused(413, f"body of {self.length} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
        self.hub = hub

    def _read_body(self) -> dict:
        if len(self.body) < self.length:
            raise ValueError(f"body ended after {len(self.body)} of the {self.length} bytes in Content-Length")
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except RecursionError:
            raise ValueError("body is nested too deeply to decode") from None
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def do_GET(self):  # noqa: N802 - the stdlib handler's names
        if self.path == "/report":
            return 200, self.hub.report()
        if self.path == "/objects":
            return 200, self.hub.objects_overview()
        if self.path.startswith("/objects/"):
            iri = self.path[len("/objects/"):]
            try:
                detail = self.hub.object_detail(iri)
            except MalformedIri as exc:
                return 400, {"error": str(exc)}
            if detail is None:
                return 404, {"error": f"unknown object {iri}"}
            return 200, detail
        if self.path == "/services":
            return 200, self.hub.services_overview()
        return 404, {"error": f"no route {self.path}"}

    def do_POST(self):  # noqa: N802 - the stdlib handler's names
        try:
            doc = self._read_body()
        except ValueError as exc:  # also malformed JSON and UTF-8
            return 400, {"error": str(exc)}
        if self.path == "/requests":
            capability = doc.get("capability")
            user = doc.get("user")
            if not capability or not user:
                return 400, {"error": "capability and user are required"}
            for key, value in (("capability", capability), ("user", user)):
                if type(value) is not str:  # str() would make any value a name
                    return 400, {"error": f"{key} must be a JSON string, got {json.dumps(value)}"}
            tick = doc.get("tick")
            if tick is not None and type(tick) is not int:  # bool is an int subclass
                return 400, {"error": f"tick must be a JSON integer, got {json.dumps(tick)}"}
            try:
                return 200, self.hub.submit_request(capability, user, tick)
            except TickOutOfRange as exc:
                return 400, {"error": str(exc)}
        if self.path == "/queries":
            try:
                return 200, self.hub.run_query(doc)
            except (HubError, KeyError, ValueError) as exc:
                return 400, {"error": str(exc)}
        return 404, {"error": f"no route {self.path}"}


class GatewayServer:
    """Serves one hub from one thread; port 0 picks a free port."""

    def __init__(self, hub: Hub, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.port: int = self._listener.getsockname()[1]
        self._hub = hub
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
                sock, _ = self._listener.accept()
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
                        sock.send(_answer(503, {"error": f"the gateway already holds {MAX_CONNECTIONS} connections"}))
                    except OSError:
                        pass
                continue
            conn = _Conn(sock, monotonic() + SOCKET_TIMEOUT_S)
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
        if conn.handler is None:
            end = _HEAD_END.search(conn.buf, max(len(conn.buf) - len(data) - 3, 0))
            if end is None and data and len(conn.buf) <= MAX_HEAD_BYTES:
                return  # the head is still arriving
            if not conn.buf:  # closed before asking anything
                return self._close(conn)
            head = end.end() if end else len(conn.buf)  # at EOF, whatever came
            try:
                conn.handler = _Handler(self._hub, bytes(conn.buf[:head]))
            except _Refused as exc:
                return self._reply(conn, _answer(exc.status, {"error": str(exc)}))
            del conn.buf[:head]
        if data and len(conn.buf) < conn.handler.length:
            return  # the body is still arriving
        self._serve(conn)

    def _expire(self, conn: _Conn) -> None:
        if conn.out is not None:  # the client is not taking its answer
            self._close(conn)
        else:  # the head, or the body after it, stalled
            part = "request head" if conn.handler is None else "body"
            self._reply(conn, _answer(408, {"error": f"{part} not received within {SOCKET_TIMEOUT_S} s"}))

    def _serve(self, conn: _Conn) -> None:
        handler = conn.handler
        handler.body = bytes(conn.buf[:handler.length])
        try:
            answer = _answer(*(handler.do_POST() if handler.method == "POST" else handler.do_GET()))
        except Exception:  # a bug in a route: report it and keep serving the rest
            traceback.print_exc()
            answer = _answer(500, {"error": "internal error"})
        self._reply(conn, answer)

    def _reply(self, conn: _Conn, answer: bytes) -> None:
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
