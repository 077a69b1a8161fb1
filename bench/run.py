"""semhub benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload scenario --seed 1 --seconds 30 --trace 0

Runs a fixed plan of passes of the workload (sized from --seconds), one
after another, each in a fresh interpreter under its own PYTHONHASHSEED
(see one_pass.py), and reports medians and percentiles over them.  Prints
a table of every metric with its unit, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from a traced full pass between two untraced ones, so the tracing
overhead is measured in the same run.

BENCHMARK.json at the root declares the metrics and their units; the
workloads, their sizes, and which per-layer metric should move which
end-to-end metric are described in bench/LAYERS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"

WORKLOADS = ("scenario", "gateway")
PASS_TIMEOUT_S = 100  # a run must end within 180 s even if its last pass hangs

# The plan of an untraced run.  On the shared 2-vCPU machine it was sized
# on, a full scenario pass takes about 12 s, a probe pass about 4 s and a
# gateway pass about 2.4 s plus its serving time, so a run lasts about
# --seconds.
FULL_PASSES = 3
FULL_PASS_S = 12
PROBE_PASS_S = 4
GATEWAY_PASSES = 8
GATEWAY_PASS_S = 2.4

# Rounds of the gateway mix the probe sends: three give six README joins.
PROBE_ROUNDS = 3

# Ticks `scenario` runs before serving the probe, and the gateway's
# warm-up.  The README join grows with the square of central:vitals (0.27 s
# at 500 ticks, 1.4 s at 1000); at 300 ticks (about 2k triples) it costs
# about as much as eight single-pattern queries, so it cannot take over the
# time the gateway's two clients contend for.
PROBE_TICK = 300
WARMUP_TICKS = 300

SINGLE_PATTERN_KINDS = ("scoped", "unscoped", "renamed", "fresh-filter")


def pass_args(workload: str, seed: int, seconds: int, smoke: bool) -> dict:
    args = {"workload": workload, "seed": seed}
    if workload == "gateway":
        serve_s = 0.5 if smoke else max(1.0, seconds / GATEWAY_PASSES - GATEWAY_PASS_S)
        return dict(args, warmup_ticks=100 if smoke else WARMUP_TICKS, serve_s=serve_s)
    # 1600 ticks take in the script's requests at ticks 800 to 1500, whose two
    # cross-domain ones are cache hits: the probe at tick 100 builds the mashup
    if smoke:
        return dict(args, ticks=1600, probe_tick=100, probe_rounds=1)
    return dict(args, ticks=None, probe_tick=PROBE_TICK, probe_rounds=PROBE_ROUNDS)


def plan(workload: str, seconds: int, trace: bool) -> list[tuple[str, bool]]:
    """The passes of a run as (kind, traced).  A fixed plan, so a faster
    program does the same work in less time rather than more work.

    `scenario` spreads its full passes evenly among probe passes that stop
    after the probe tick: those add set-up and probe samples taken at other
    moments, so every metric is sampled across the whole run and over the
    machine's slow and fast spells alike.  A traced run puts one traced
    full pass between two untraced ones, whose median it is compared with
    for the tracing overhead."""
    if trace:
        return [("full", False), ("full", True), ("full", False)]
    if workload == "gateway":
        return [("full", False)] * GATEWAY_PASSES
    n = FULL_PASSES + max(1, (seconds - FULL_PASSES * FULL_PASS_S) // PROBE_PASS_S)
    fulls = {int((i + 0.5) * n / FULL_PASSES) for i in range(FULL_PASSES)}
    return [("full" if i in fulls else "probe", False) for i in range(n)]


def run_pass(args: dict, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "one_pass.py"), json.dumps(args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass failed ({args['workload']}, PYTHONHASHSEED={hash_seed})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> list[dict]:
    base = pass_args(workload, seed, seconds, smoke)
    passes: list[dict] = []
    for n, (kind, traced) in enumerate(plan(workload, seconds, trace)):
        args = dict(base, trace=traced)
        if kind == "probe":
            args["stop_tick"] = args["probe_tick"]
        if traced:
            args["spans_file"] = str(OUT_DIR / f"spans-{workload}.jsonl")
        result = run_pass(args, hash_seed(seed, n))
        result.update(kind=kind, traced=traced)
        passes.append(result)
    return passes


def hash_seed(seed: int, n: int) -> int:
    return (seed * 101 + n) % 4294967295


# --- aggregation ------------------------------------------------------------

def percentile(values: list[float], pct: int) -> float:
    if not values:
        raise SystemExit("no samples for a reported percentile")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def ticks_per_s(p: dict) -> float:
    return len(p["ticks"]) / sum(p["ticks"])


def ops_per_s(p: dict) -> float:
    return p["ops"] / p["ops_s"]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Tick-loop, store and memory figures come from full passes only;
    set-up, request, query and throughput figures from every pass.  Rates
    and percentiles pool the samples of all passes, so a run's figure is
    an average over its whole length rather than over one pass."""
    full = [p for p in passes if p["kind"] == "full"]
    ticks = [t * 1e3 for p in full for t in p["ticks"]]

    def request_ms(path):
        return [r["ms"] for p in passes for r in p["requests"] if r["path"] == path]

    single = request_ms("single-domain")
    hits = request_ms("mashup-cache-hit")
    queries = [q["ms"] for p in passes for q in p["queries"] if q["kind"] in SINGLE_PATTERN_KINDS]
    joins = [q["ms"] for p in passes for q in p["queries"] if q["kind"] == "join"]

    def median(key, among=passes):
        return statistics.median(p[key] for p in among)

    return {
        "setup_s": median("setup_s"),
        "ticks_per_s": len(ticks) / sum(ticks) * 1e3,
        "tick_ms_p99": percentile(ticks, 99),
        "store_triples": median("store_triples", full),
        "peak_rss_mb": median("peak_rss_mb", full),
        "request_single_domain_ms_p50": percentile(single, 50),
        "request_single_domain_ms_p90": percentile(single, 90),
        "request_cache_hit_ms_p50": percentile(hits, 50),
        "request_cache_hit_ms_p90": percentile(hits, 90),
        "query_ms_p50": percentile(queries, 50),
        "query_ms_p90": percentile(queries, 90),
        "query_join_ms_p50": percentile(joins, 50),
        "ops_per_s": sum(p["ops"] for p in passes) / sum(p["ops_s"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    """Medians over the traced passes; the overhead compares them with the
    untraced passes of the same run."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}

    def overhead(fn):
        return statistics.median(fn(p) for p in traced) - statistics.median(fn(p) for p in plain)

    out["trace.overhead_ticks_per_s"] = overhead(ticks_per_s)
    out["trace.overhead_ops_per_s"] = overhead(ops_per_s)
    return out


def determinism_failures(passes: list[dict]) -> list[str]:
    """The passes of a run share the seed but not PYTHONHASHSEED, so passes
    of one kind (traced or not) must report identical digests."""
    failures = []
    for kind in ("full", "probe"):
        digests = [(i, p["digest"]) for i, p in enumerate(passes) if p["kind"] == kind and p["digest"]]
        failures += [
            f"pass {i}: report digest {d[:12]} differs from pass {digests[0][0]}'s {digests[0][1][:12]}"
            for i, d in digests
            if d != digests[0][1]
        ]
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, to check the harness itself")
    args = ap.parse_args(argv)
    # Turn a termination request into an exception, so subprocess.run kills
    # and reaps the running pass before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    mismatches = determinism_failures(passes)
    errors = [e for p in passes for e in p["errors"]] + mismatches
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(mismatches)

    values = per_layer(passes) if args.trace else end_to_end(passes)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    if args.trace:
        traced = next(p for p in passes if p["traced"])
        print(f"# self time by span, traced pass ({traced['kind']})")
        print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
        for name, row in sorted(traced["layer_table"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:40s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f} {row['self_share']:7.1%}")
    vitals = statistics.median(p["vitals_at_probe"] for p in passes)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"central:vitals at the start of query measurement={vitals:.0f} triples")
    for name, value in values.items():
        print(f"{name:40s} {value:14.4f} {units[name]}")
    print(f"{'failed_ratio':40s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
