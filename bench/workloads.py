"""Benchmark inputs, generated from the workload seed, and the outcomes the
hub must produce for them.

Everything here is pure: the same seed yields the same scenario and query
mix, and the expected outcome of a request follows from
the bundled access policy alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from semhub.hub import (
    CENTRAL_VITALS_GRAPH,
    DATA_DIR,
    ScenarioConfig,
    load_scenario,
)

CROSS_DOMAIN = "analytics.activity-physio-correlation"
CAPABILITIES = (
    "analytics.physio-status",
    "reason.activity",
    "analytics.location",
    CROSS_DOMAIN,
)
USERS = ("alice", "carol")

# The requests of one round of the mix: every capability for every user,
# then location for both users and physio-status and the cross-domain
# capability for alice once more.  Single-domain requests then run 2:4:2
# activity (~2 ms), location (~5 ms) and physio-status (~8 ms), so p50
# falls inside the location requests and p90 inside the physio ones rather
# than on the edge between two of them.
REQUEST_MIX = tuple((c, u) for c in CAPABILITIES for u in USERS) + (
    ("analytics.location", "alice"),
    ("analytics.location", "carol"),
    ("analytics.physio-status", "alice"),
    (CROSS_DOMAIN, "alice"),
)

# Times REQUEST_MIX and the single-pattern queries appear in one gateway round.
DECK_REPEATS = 3

VITALS = CENTRAL_VITALS_GRAPH.value
HEART_RATE = "urn:sem:heartRate"
SYSTOLIC = "urn:sem:systolicPressure"

# The README's example document: a two-pattern join over central:vitals
# whose cost grows with the square of that graph's size.
README_JOIN = {
    "select": ["?record", "?hr"],
    "where": [
        ["?record", "urn:sem:type", "urn:sem:class:VitalsRecord"],
        ["?record", HEART_RATE, "?hr"],
    ],
    "filters": [{"var": "?hr", "op": ">", "value": {"value": "100", "type": "decimal"}}],
    "graphs": [VITALS],
}


def policy() -> dict[str, int]:
    return json.loads((DATA_DIR / "services" / "policy.json").read_text(encoding="utf-8"))


def truncated(cfg: ScenarioConfig, ticks: int) -> ScenarioConfig:
    """The first `ticks` ticks of a scenario, with their requests and faults."""
    return replace(
        cfg,
        duration_ticks=ticks,
        requests=tuple(r for r in cfg.requests if r.tick < ticks),
        faults=tuple(f for f in cfg.faults if f.tick < ticks),
    )


def scenario_config(seed: int) -> ScenarioConfig:
    """The bundled scenario with the workload seed."""
    return replace(load_scenario(), seed=seed)


def warmup_config(seed: int, ticks: int) -> ScenarioConfig:
    """The gateway's warm-up: the tick loop alone, with no scripted requests."""
    return replace(load_scenario(), seed=seed, duration_ticks=ticks, requests=(), faults=())


class OutcomeModel:
    """Predicts each request's outcome and resolution path from the policy:
    a user below the capability's level is denied, the cross-domain
    capability builds its mashup once and reuses it after, every other
    capability is served from one domain."""

    def __init__(self, users: dict[str, int], mashup_cached: bool = False):
        self.levels = policy()
        self.users = dict(users)
        self.mashup_cached = mashup_cached

    def expect(self, capability: str, user: str) -> tuple[str, str | None]:
        if self.users[user] < self.levels[capability]:
            return "denied", None
        if capability != CROSS_DOMAIN:
            return "completed", "single-domain"
        if self.mashup_cached:
            return "completed", "mashup-cache-hit"
        self.mashup_cached = True
        return "completed", "mashup-generated"


def resolution_counts(requests, users: dict[str, int]) -> dict[str, int]:
    """The report's resolution counters a request script must produce."""
    counts = {"single-domain": 0, "mashup-generated": 0, "mashup-cache-hit": 0, "denied": 0, "failed": 0}
    model = OutcomeModel(users)
    for r in requests:
        outcome, path = model.expect(r.capability, r.user)
        counts[path or outcome] += 1
    return counts


# --- the query mix ----------------------------------------------------------

def _single(var_s: str, var_v: str, predicate: str, graphs=None, threshold=None) -> dict:
    doc = {"select": [var_s, var_v], "where": [[var_s, predicate, var_v]]}
    if threshold is not None:
        doc["filters"] = [{"var": var_v, "op": ">", "value": {"value": threshold, "type": "decimal"}}]
    if graphs:
        doc["graphs"] = graphs
    return doc


# Each base query is one pattern over a predicate that request handling
# never writes, so its rows stay fixed while requests run alongside it.
BASE_QUERIES = {
    "scoped": _single("?s", "?v", HEART_RATE, graphs=[VITALS]),
    "unscoped": _single("?s", "?v", SYSTOLIC),
}

# The single-pattern queries of one round as (kind, base).  "renamed"
# repeats a base query under other variable names, so the query log serves
# it as a hit; "fresh-filter" adds a filter constant drawn from a wide
# range, so the log mostly misses.  Unscoped queries take about twice as
# long as the rest; with three of eight unscoped, p50 falls inside the
# scoped ones and p90 inside the unscoped ones rather than between them.
SINGLE_PATTERN_MIX = (
    ("scoped", "scoped"),
    ("scoped", "scoped"),
    ("unscoped", "unscoped"),
    ("unscoped", "unscoped"),
    ("renamed", "scoped"),
    ("renamed", "unscoped"),
    ("fresh-filter", "scoped"),
    ("fresh-filter", "scoped"),
)


def query(kind: str, base: str, rng: random.Random) -> dict:
    """The document of one query of the given kind over the given base."""
    doc = BASE_QUERIES[base]
    if kind == base:
        return doc
    if kind == "renamed":
        n = rng.randrange(1000)
        return _single(f"?a{n}", f"?b{n}", doc["where"][0][1], doc.get("graphs"))
    if kind == "fresh-filter":
        threshold = f"{rng.randrange(600, 1500) / 10:.1f}"
        return _single("?s", "?v", doc["where"][0][1], doc.get("graphs"), threshold=threshold)
    raise ValueError(kind)


def gateway_deck(rng: random.Random) -> list[tuple[str, str, dict]]:
    """One shuffled round of the gateway's closed-loop mix: DECK_REPEATS times
    REQUEST_MIX and SINGLE_PATTERN_MIX, then two README joins.  Clients
    deal whole rounds, so every stretch of the run holds the same mix."""
    ops = []
    for _ in range(DECK_REPEATS):
        ops += [("request", "", {"capability": c, "user": u}) for c, u in REQUEST_MIX]
        ops += [(kind, base, query(kind, base, rng)) for kind, base in SINGLE_PATTERN_MIX]
    ops += [("join", "join", README_JOIN)] * 2
    rng.shuffle(ops)
    return ops
