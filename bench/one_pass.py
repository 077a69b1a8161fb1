"""One measured pass of one workload, in a fresh interpreter.

    python3 bench/one_pass.py '{"workload": "scenario", "seed": 1, ...}'

Prints one JSON line with the pass's raw samples, its output checks and,
when traced, its per-layer metrics.  `run.py` launches the passes (each
under its own PYTHONHASHSEED) and aggregates them; a pass runs alone, so
`ru_maxrss` belongs to its workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import math
import os
import random
import resource
import sys
import threading
from decimal import Decimal
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from semhub.gateway import GatewayServer  # noqa: E402
from semhub.hub import Hub, CENTRAL_VITALS_GRAPH, ScriptedRequest  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# The gateway's closed-loop clients, threads of this process: one per CPU of
# the 2-core machine the workload was sized on.
CLIENTS = 2


class Pass:
    """Samples, operation counts and check failures of one pass."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.requests: list[dict] = []  # {"path", "ms"}
        self.queries: list[dict] = []  # {"kind", "ms"}
        self.round_trips: dict[str, float] = {}

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok


class TickClock:
    """Times each tick as the interval between successive `Broker.advance`
    returns.  `on_tick(n)` runs after the n-th advance; the time it takes
    is left out of every interval.  With a tracer, each interval is also a
    `hub.tick` span, parent of the calls made during it."""

    def __init__(self, broker, tracer=None, on_tick=None):
        self.intervals: list[float] = []
        self._tracer = tracer
        self._span = None
        self._mark = None
        advance = broker.advance

        def timed_advance(ms):
            result = advance(ms)
            now = perf_counter()
            self.intervals.append(now - self._mark)
            if tracer:
                tracer.end(self._span)
            if on_tick:
                on_tick(len(self.intervals))
            self._open()
            return result

        broker.advance = timed_advance

    def _open(self):
        if self._tracer:
            self._span = self._tracer.begin("hub.tick", req=f"tick-{len(self.intervals)}")
        self._mark = perf_counter()

    def run(self, hub) -> None:
        self._open()
        hub.run()
        if self._tracer:
            self._tracer.end(self._span)


def post(port: int, path: str, doc: dict, req_id: str) -> tuple[int, dict, float]:
    body = json.dumps(doc).encode("utf-8")
    start = perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json", "X-Bench-Id": req_id})
        resp = conn.getresponse()
        payload = resp.read()
    finally:
        conn.close()
    return resp.status, json.loads(payload), perf_counter() - start


# --- output checks ----------------------------------------------------------

def _row_values(result: dict, doc: dict) -> list[tuple]:
    """Rows as tuples in select order (the gateway sorts each row's keys)."""
    names = [v.lstrip("?") for v in doc["select"]]
    return [tuple(row[n] for n in names) for row in result["rows"]]


def _expected_rows(kind: str, base: str, doc: dict, expected: dict) -> list[tuple]:
    rows = expected[base]
    if kind != "fresh-filter":
        return rows
    threshold = Decimal(doc["filters"][0]["value"]["value"])
    return [r for r in rows if Decimal(r[1].split('"')[1]) > threshold]


def rows_digest(rows: list[tuple]) -> int:
    return hash(tuple(rows))


def check_query(p: Pass, kind: str, base: str, doc: dict, status: int, result: dict, expected: dict):
    if p.check(status == 200, f"{kind} query answered {status}: {result}"):
        p.check(
            result["rows_digest"] == rows_digest(_expected_rows(kind, base, doc, expected)),
            f"{kind} query rows differ from the in-process result: {doc}",
        )


def check_request(p: Pass, model: wl.OutcomeModel, record: dict) -> None:
    outcome, path = model.expect(record["capability"], record["user"])
    p.check(
        record.get("outcome") == outcome and record.get("path") == path,
        f"request {record.get('id')} {record['capability']}/{record['user']}: got "
        f"{record.get('outcome')}/{record.get('path')}, expected {outcome}/{path}"
        f" ({record.get('reason', '')})",
    )


def check_tick_report(p: Pass, report: dict, requests=None, users=None) -> None:
    bus = report["bus"]
    p.check(bus["published"] == bus["delivered"], f"bus published {bus['published']} != delivered {bus['delivered']}")
    p.check(report["objects"]["ingestRejected"] == 0, "observations were rejected at ingest")
    p.check(report["validation"]["invalid"] == 0, "a medical batch failed validation")
    if requests is not None:
        want = wl.resolution_counts(requests, users)
        got = {k: report["resolution"][k] for k in want}
        p.check(got == want, f"resolution counters {got} != {want}")


def expected_rows(hub) -> dict[str, list[tuple]]:
    docs = dict(wl.BASE_QUERIES, join=wl.README_JOIN)
    return {name: _row_values(hub.run_query(doc), doc) for name, doc in docs.items()}


def paused(tracer):
    """The tracer's paused() block, or no-op without a tracer."""
    return tracer.paused() if tracer else contextlib.nullcontext()


# --- the workloads ----------------------------------------------------------

def run_client(port: int, rounds, req_prefix: str, deadline: float = math.inf, tick=None) -> list[tuple]:
    """A closed-loop client: sends the operations of `rounds` one after
    another until they run out or the deadline passes."""
    sent = []
    for n, (kind, base, doc) in enumerate(itertools.chain.from_iterable(rounds)):
        if perf_counter() >= deadline:
            break
        if kind == "request":
            path, doc = "/requests", doc if tick is None else dict(doc, tick=tick)
        else:
            path = "/queries"
        req_id = f"{req_prefix}{n}"
        try:
            status, result, rt = post(port, path, doc, req_id)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, result, rt = 0, {"error": repr(exc)}, 0.0
        if kind != "request" and status == 200:
            # Keep a digest of the rows, not the rows: retained answers would
            # make the pass's peak RSS grow with the gateway's throughput.
            result = {"rows_digest": rows_digest(_row_values(result, doc))}
        sent.append((req_id, kind, base, doc, status, result, rt))
    return sent


def account(p: Pass, sent: list[tuple], expected: dict, model: wl.OutcomeModel | None) -> None:
    """Check every answer; time queries by their round trip, and requests
    too when `model` is given (otherwise they are timed in-process and
    checked from the report)."""
    for req_id, kind, base, doc, status, result, rt in sent:
        p.attempted += 1
        p.round_trips[req_id] = rt
        if kind != "request":
            check_query(p, kind, base, doc, status, result, expected)
            p.queries.append({"kind": kind, "ms": rt * 1e3})
        elif p.check(status == 200, f"request answered {status}: {result}") and model:
            check_request(p, model, result)
            p.requests.append({"path": result.get("path") or result["outcome"], "ms": rt * 1e3})


def tick_workload(args: dict, p: Pass, tracer) -> dict:
    seed = args["seed"]
    cfg = wl.scenario_config(seed)
    for ticks in (args.get("ticks"), args.get("stop_tick")):
        if ticks:
            cfg = wl.truncated(cfg, ticks)

    if tracer:
        tracing.instrument_training(tracer)
    start = perf_counter()
    hub = Hub(cfg)
    hub.boot()
    setup_s = perf_counter() - start

    if tracer:
        tracing.instrument(hub, tracer)
    submit = hub.submit_request

    def timed_submit(capability, user, tick=None):
        t0 = perf_counter()
        record = submit(capability, user, tick)
        ms = (perf_counter() - t0) * 1e3
        p.requests.append({"path": record.get("path") or record["outcome"], "ms": ms})
        return record

    hub.submit_request = timed_submit
    probe = {"requests": []}

    def on_tick(n):
        # The probe: the loop pauses after the n-th advance (inside tick
        # n - 1, before that tick's requests) and one client sends a few
        # rounds of the gateway mix over HTTP.
        if n != args["probe_tick"]:
            return
        rng = random.Random(f"probe:{seed}")
        rounds = [wl.gateway_deck(rng) for _ in range(args["probe_rounds"])]
        probe["vitals"] = hub.store.graph_size(CENTRAL_VITALS_GRAPH)
        server = GatewayServer(hub).start()
        try:
            begin = perf_counter()
            sent = run_client(server.port, rounds, "probe-", tick=n - 1)
            probe["elapsed"] = perf_counter() - begin
        finally:
            server.stop()
        with paused(tracer):
            expected = expected_rows(hub)
        account(p, sent, expected, None)
        probe["requests"] = [ScriptedRequest(**doc) for _, kind, _, doc, *_ in sent if kind == "request"]
        probe["ops"] = len(sent)

    clock = TickClock(hub.broker, tracer, on_tick)
    clock.run(hub)
    report = hub.report()
    hub.close()

    p.attempted += len(clock.intervals) + len(cfg.requests)
    model = wl.OutcomeModel(dict(cfg.users))
    for record in report["requests"]:
        check_request(p, model, record)
    check_tick_report(p, report, cfg.requests + tuple(probe["requests"]), dict(cfg.users))
    p.check("elapsed" in probe, "the probe tick was never reached")
    return {
        "setup_s": setup_s,
        "ticks": clock.intervals,
        "ops": probe.get("ops", 0),
        "ops_s": probe.get("elapsed", math.inf),
        "store_triples": sum(hub.store.graph_size(g) for g in hub.store.graphs()),
        "vitals_at_probe": probe.get("vitals"),
        "digest": hashlib.sha256(hub.report_json().encode("utf-8")).hexdigest(),
        "stats": {"bus": report["bus"], "evicted": report["objects"]["evicted"]},
    }


def gateway_workload(args: dict, p: Pass, tracer) -> dict:
    seed = args["seed"]
    cfg = wl.warmup_config(seed, args["warmup_ticks"])
    if tracer:
        tracing.instrument_training(tracer)
    start = perf_counter()
    hub = Hub(cfg)
    hub.boot()
    if tracer:
        tracing.instrument(hub, tracer)
    clock = TickClock(hub.broker, tracer)
    clock.run(hub)
    server = GatewayServer(hub).start()
    setup_s = perf_counter() - start

    try:
        # Priming: build the mashup, fill the query log, then take the rows
        # every later answer must equal.
        for capability in wl.CAPABILITIES:
            for user in wl.USERS:
                hub.submit_request(capability, user)
        with paused(tracer):
            expected = expected_rows(hub)
        store_triples = sum(hub.store.graph_size(g) for g in hub.store.graphs())
        vitals = hub.store.graph_size(CENTRAL_VITALS_GRAPH)

        results: list[list] = [[] for _ in range(CLIENTS)]
        deadline = perf_counter() + args["serve_s"]

        def client(k: int):
            rng = random.Random(f"gateway:{seed}:{k}")
            rounds = (wl.gateway_deck(rng) for _ in itertools.count())
            results[k] = run_client(server.port, rounds, f"c{k}-", deadline)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
        begin = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=args["serve_s"] + 60)
        elapsed = perf_counter() - begin
        p.check(not any(t.is_alive() for t in threads), "a gateway client did not finish")
    finally:
        server.stop()
    report = hub.report()
    hub.close()

    model = wl.OutcomeModel(dict(cfg.users), mashup_cached=True)
    for sent in results:
        account(p, sent, expected, model)
    p.attempted += len(clock.intervals)
    check_tick_report(p, report)
    return {
        "setup_s": setup_s,
        "ticks": clock.intervals,
        "ops": sum(map(len, results)),
        "ops_s": elapsed,
        "store_triples": store_triples,
        "vitals_at_probe": vitals,
        "digest": None,
        "stats": {"bus": report["bus"], "evicted": report["objects"]["evicted"]},
    }


def main(args: dict) -> dict:
    p = Pass()
    tracer = tracing.Tracer() if args["trace"] else None
    run = gateway_workload if args["workload"] == "gateway" else tick_workload
    out = run(args, p, tracer)
    stats = out.pop("stats")
    out.update(
        requests=p.requests,
        queries=p.queries,
        attempted=p.attempted,
        failed=len(p.errors),
        errors=p.errors[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer.spans, p.round_trips, stats)
        out["layer_table"] = tracing.layer_table(tracer.spans)
        if args.get("spans_file"):
            tracer.write(Path(args["spans_file"]))
    return out


if __name__ == "__main__":
    # The hub is one interpreter: its threads take turns holding the
    # interpreter lock, and handing it across two CPUs made gateway
    # latencies swing by half between passes.  On one CPU they hold still.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(main(json.loads(sys.argv[1]))))
