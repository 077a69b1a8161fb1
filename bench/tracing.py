"""Spans recorded from outside the program, around calls into each layer.

`instrument` replaces the public entry points of a live hub's objects, and
the module-level functions the hub looks up at call time, with wrappers
that record a span per call.  Spans stay in memory (name, start, end,
parent, request id, tag) until `Tracer.write` stores them; `layer_table`
and `layer_metrics` turn them into per-layer self times, where a span's
self time is its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, REQ, TAG = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.flow_parent: int | None = None  # the running orchestrate span
        self.enabled = True

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, req: str | None) -> None:
        self._local.req = req

    @contextmanager
    def paused(self):
        """Record no spans inside the block: for the harness's own calls into
        the hub, such as the queries its checks compare answers with."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def begin(self, name: str, parent: int | None = None, req: str | None = None) -> int | None:
        """Open a span; returns its index, or None while paused."""
        if not self.enabled:
            return None
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if req is None:
            req = self.spans[parent][REQ] if parent is not None else getattr(self._local, "req", None)
        span = [name, perf_counter(), None, parent, req, None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def end(self, idx: int | None, name: str | None = None, tag=None) -> None:
        if idx is None:
            return
        span = self.spans[idx]
        span[END] = perf_counter()
        if name is not None:
            span[NAME] = name
        span[TAG] = tag
        self._stack().pop()

    def wrap(self, fn, name, rename=None, tag=None, parent=None):
        """A wrapper recording one span per call of fn.  `rename` and `tag`
        derive the final name and a tag from (args, result); `parent`
        supplies an explicit parent for calls made on other threads."""

        def traced(*args, **kwargs):
            idx = self.begin(name, parent() if parent else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(
                    idx,
                    rename(args, result) if rename else None,
                    tag(args, result) if tag and result is not None else None,
                )

        return traced

    def patch(self, owner, attr: str, name, **kw) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, req, tag) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "req": req, "tag": tag}
                    )
                    + "\n"
                )


def instrument_training(tracer: Tracer) -> None:
    """Wrap the predictions boot makes to score its trained models; call
    before `Hub.boot`.  They are the only naive-Bayes predictions a run
    makes, since no flow reaches the activity analyzer."""
    import semhub.hub

    tracer.patch(semhub.hub, "predict", "ml.predict", rename=_algorithm)


def _algorithm(args, _result) -> str:
    return f"ml.predict.{args[0].config.algorithm}"


def instrument(hub, tracer: Tracer) -> None:
    """Wrap every layer entry point the hub reaches after boot."""
    import semhub.analytics
    import semhub.gateway
    import semhub.reasoning
    import semhub.services

    t = tracer
    qos = lambda args, _r: f"bus.publish.qos{args[0].qos}"  # noqa: E731
    t.patch(hub.broker, "publish", "bus.publish", rename=qos)
    t.patch(hub.registry, "ingest", "objects.ingest")
    t.patch(hub.registry, "evaluate_cvo_rules", "objects.cvo_pass")
    t.patch(hub.store, "snapshot", "semantic.snapshot", tag=lambda _a, r: len(r))
    t.patch(hub.store, "evaluate", "semantic.evaluate", tag=lambda _a, r: len(r.rows))
    for facade, prefix in ((hub.med_interop, "interop.med"), (hub.interop, "interop.hub")):
        for step in ("translate", "annotate", "align", "validate", "synchronize"):
            t.patch(facade, step, f"{prefix}.{step}")
    t.patch(hub.interop, "process_query", "interop.process_query", tag=lambda _a, r: r[1])
    t.patch(hub.reasoning, "run", "reasoning.run")
    t.patch(semhub.reasoning, "infer_fixpoint", "reasoning.infer_fixpoint",
            tag=lambda _a, r: r.iterations)
    t.patch(semhub.analytics, "predict", "ml.predict", rename=_algorithm)
    t.patch(hub.analytics, "analyze_physio_status", "analytics.physio")
    t.patch(semhub.services, "evaluate_request", "services.evaluate_request")

    orchestrate = semhub.services.orchestrate

    def traced_orchestrate(*args, **kwargs):
        idx = t.begin("services.orchestrate")
        t.flow_parent = idx
        try:
            return orchestrate(*args, **kwargs)
        finally:
            t.flow_parent = None
            t.end(idx)

    semhub.services.orchestrate = traced_orchestrate

    # Flow steps run on orchestrate's worker threads, so their handler spans
    # name the orchestrate span as parent explicitly.
    handler = hub.repo.handler

    def traced_handler(kind):
        fn = handler(kind)
        if fn is None:
            return None
        return t.wrap(fn, f"services.handler.{kind}", parent=lambda: t.flow_parent)

    hub.repo.handler = traced_handler
    t.patch(hub.repo, "instantiate", "services.instantiate")
    t.patch(hub.repo, "monitor_tick", "services.monitor_tick")
    t.patch(hub, "submit_request", "hub.request")
    t.patch(hub, "run_query", "hub.query")
    t.patch(hub, "resolve", "hub.resolve", rename=lambda _a, r: f"hub.resolve.{r.path}" if r else "hub.resolve")
    t.patch(hub, "_generate_mashup", "hub.mashup_generate")
    for sim in hub.simulators.values():
        t.patch(sim, "emit", "simulate.emit")

    do_post = semhub.gateway._Handler.do_POST

    def traced_post(handler_self):
        t.set_request(handler_self.headers.get("X-Bench-Id"))
        idx = t.begin("gateway.post")
        try:
            return do_post(handler_self)
        finally:
            t.end(idx)
            t.set_request(None)

    semhub.gateway._Handler.do_POST = traced_post


# --- summaries --------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        kids = [
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children.get(i, ())
            if spans[c][END] is not None
        ]
        out.append(end - start - _covered([k for k in kids if k[1] > k[0]]))
    return out


def layer_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and the share of all
    self time (which sums to the traced wall time of the root spans)."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    grand = sum(r["self_s"] for r in table.values()) or 1.0
    for row in table.values():
        row["self_share"] = row["self_s"] / grand
    return dict(sorted(table.items()))


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[list], round_trips: dict[str, float], stats: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in the unit their
    name carries, means per call unless the name says otherwise)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def self_mean(name: str, scale: float) -> float:
        return _mean(selfs[i] for i in by_name.get(name, ())) * scale

    def total(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] for i in by_name.get(name, ()))

    def tags(name: str) -> list:
        return [spans[i][TAG] for i in by_name.get(name, ())]

    us, ms = 1e6, 1e3
    batches = len(by_name.get("interop.med.validate", ())) or 1
    rows = sum(tags("semantic.evaluate"))
    copied = sum(
        spans[i][TAG] for i in by_name.get("semantic.snapshot", ())
        if spans[i][PARENT] is not None and spans[spans[i][PARENT]][NAME] == "semantic.evaluate"
    )
    statuses = tags("interop.process_query")
    ticks = [spans[i][END] - spans[i][START] for i in by_name.get("hub.tick", ())]
    quarter = max(1, len(ticks) // 4)
    overheads = []
    for i in by_name.get("hub.request", ()) + by_name.get("hub.query", ()):
        req = spans[i][REQ]
        if req in round_trips:
            overheads.append(round_trips[req] - (spans[i][END] - spans[i][START]))
    return {
        "bus.publish_qos0_us": self_mean("bus.publish.qos0", us),
        "bus.publish_qos1_us": self_mean("bus.publish.qos1", us),
        "bus.delivered": stats["bus"]["delivered"],
        "bus.retries": stats["bus"]["retries"],
        "bus.dead_lettered": stats["bus"]["dead_lettered"],
        "objects.ingest_us": self_mean("objects.ingest", us),
        "objects.evicted": stats["evicted"],
        "objects.cvo_pass_us": self_mean("objects.cvo_pass", us),
        "semantic.snapshot_us": self_mean("semantic.snapshot", us),
        "semantic.snapshots": len(by_name.get("semantic.snapshot", ())),
        "semantic.snapshot_triples_per_row": copied / rows if rows else float(copied),
        "semantic.evaluate_ms": self_mean("semantic.evaluate", ms),
        "interop.medical_batch_ms": sum(
            total(f"interop.med.{s}") for s in ("translate", "annotate", "align", "validate", "synchronize")
        ) / batches * ms,
        "interop.process_query_ms": self_mean("interop.process_query", ms),
        "interop.query_log_hit_ratio": statuses.count("hit") / len(statuses) if statuses else 0.0,
        "reasoning.run_us": self_mean("reasoning.run", us),
        "reasoning.infer_fixpoint_us": self_mean("reasoning.infer_fixpoint", us),
        "reasoning.fixpoint_rounds": _mean(tags("reasoning.infer_fixpoint")),
        "ml.predict_us.knn": self_mean("ml.predict.knn", us),
        "ml.predict_us.naive-bayes": self_mean("ml.predict.naive-bayes", us),
        "analytics.physio_us": self_mean("analytics.physio", us),
        "services.evaluate_request_us": self_mean("services.evaluate_request", us),
        "services.orchestrate_self_us": self_mean("services.orchestrate", us),
        "services.instantiations": len(by_name.get("services.instantiate", ())),
        "services.monitor_tick_us": self_mean("services.monitor_tick", us),
        "hub.resolve_us.single-domain": self_mean("hub.resolve.single-domain", us),
        "hub.resolve_us.mashup-generated": self_mean("hub.resolve.mashup-generated", us),
        "hub.resolve_us.mashup-cache-hit": self_mean("hub.resolve.mashup-cache-hit", us),
        "hub.mashup_generate_ms": _mean(
            spans[i][END] - spans[i][START] for i in by_name.get("hub.mashup_generate", ())
        ) * ms,
        "hub.tick_self_us": self_mean("hub.tick", us),
        "hub.tick_cost_growth": _mean(ticks[-quarter:]) / _mean(ticks[:quarter]) if ticks else 0.0,
        "gateway.overhead_ms_p50": statistics.median(overheads) * ms if overheads else 0.0,
        "simulate.emit_us": self_mean("simulate.emit", us),
    }
