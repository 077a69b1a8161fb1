"""The `hub` command-line entry point.

    hub run [--config PATH] [--seed N] [--ticks N] [--report OUT]
    hub query --file QUERY.json [scenario options]
    hub objects list | show IRI   [scenario options]
    hub services list             [scenario options]
    hub request --capability CAP --user NAME [--tick N] [scenario options]
    hub serve [--port N]          [scenario options]

Inspection commands (query/objects/services/request) first drive the
configured scenario so there is real data to look at, then print JSON.
`serve` does the same and then exposes the HTTP gateway.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import HubError, MalformedIri, MalformedScenario
from .gateway import GatewayServer
from .hub import Hub, ScenarioConfig, load_scenario
from .semantic import query_from_json


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario JSON file (bundled default)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--ticks", type=int, help="override durationTicks")


def _port(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) > 65535:
        raise argparse.ArgumentTypeError(f"must be an integer 0-65535, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hub",
        description="Deterministic multi-domain IoT hub: run scenarios, "
        "inspect objects and services, submit capability requests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="drive a scenario and print its report")
    _add_scenario_options(run_p)
    run_p.add_argument("--report", help="also write the report JSON to this path")

    query_p = sub.add_parser("query", help="evaluate a query document")
    _add_scenario_options(query_p)
    query_p.add_argument("--file", required=True, help="query JSON file")

    objects_p = sub.add_parser("objects", help="inspect registered objects")
    objects_sub = objects_p.add_subparsers(dest="action", required=True)
    list_p = objects_sub.add_parser("list", help="all virtual and composite objects")
    _add_scenario_options(list_p)
    show_p = objects_sub.add_parser("show", help="one object's description")
    _add_scenario_options(show_p)
    show_p.add_argument("iri", help="object identifier")

    services_p = sub.add_parser("services", help="inspect microservices")
    services_sub = services_p.add_subparsers(dest="action", required=True)
    svc_list = services_sub.add_parser("list", help="all service descriptors")
    _add_scenario_options(svc_list)

    request_p = sub.add_parser("request", help="submit one capability request")
    _add_scenario_options(request_p)
    request_p.add_argument("--capability", required=True)
    request_p.add_argument("--user", required=True)
    request_p.add_argument("--tick", type=int, help="simulated tick (default: end of run)")

    serve_p = sub.add_parser("serve", help="run the scenario, then serve HTTP")
    _add_scenario_options(serve_p)
    serve_p.add_argument("--port", type=_port, default=8080)

    return parser


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.ticks is not None:
        # scripted events at or past the new end would never run
        overrides.update(
            duration_ticks=args.ticks,
            requests=tuple(r for r in cfg.requests if r.tick < args.ticks),
            faults=tuple(f for f in cfg.faults if f.tick < args.ticks),
        )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Reject unreadable or malformed input before the scenario runs.
    try:
        cfg = _apply_overrides(load_scenario(args.config), args)
        if args.command == "request" and args.tick is not None:
            cfg.check_tick(args.tick)
    except (OSError, HubError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    if args.command == "query":
        try:
            query_doc = json.loads(Path(args.file).read_text(encoding="utf-8"))
            query_from_json(query_doc)
        except (OSError, ValueError, RecursionError, HubError) as exc:
            parser.exit(2, f"{parser.prog}: error: query file {args.file}: {exc}\n")
    hub = Hub(cfg)
    try:
        try:
            hub.boot()
        except MalformedScenario as exc:  # e.g. a fault on an unknown kind
            parser.exit(2, f"{parser.prog}: error: {exc}\n")
        if args.command == "serve":  # bind before the run, so a taken port fails fast
            try:
                server = GatewayServer(hub, port=args.port)
            except OSError as exc:
                parser.exit(2, f"{parser.prog}: error: cannot serve on port {args.port}: {exc}\n")
        hub.run()
        if args.command == "run":
            out = hub.report_json()
            sys.stdout.write(out)
            if args.report:
                Path(args.report).write_text(out, encoding="utf-8")
            return 0
        if args.command == "query":
            try:
                _emit(hub.run_query(query_doc))
            except HubError as exc:  # e.g. a filter comparing an IRI with a literal
                sys.stderr.write(f"{parser.prog}: error: {exc}\n")
                return 1
            return 0
        if args.command == "objects":
            if args.action == "list":
                _emit(hub.objects_overview())
                return 0
            try:
                detail = hub.object_detail(args.iri)
            except MalformedIri as exc:
                sys.stderr.write(f"{parser.prog}: error: {exc}\n")
                return 1
            if detail is None:
                sys.stderr.write(f"{parser.prog}: error: unknown object {args.iri}\n")
                return 1
            _emit(detail)
            return 0
        if args.command == "services":
            _emit(hub.services_overview())
            return 0
        if args.command == "request":
            record = hub.submit_request(args.capability, args.user, args.tick)
            _emit(record)
            return 0 if record["outcome"] != "failed" else 1
        if args.command == "serve":
            sys.stderr.write(f"hub gateway listening on port {server.port}\n")
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                server.stop()
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    finally:
        hub.close()


if __name__ == "__main__":
    sys.exit(main())
