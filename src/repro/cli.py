"""Command-line interface: run Seraph queries over recorded streams.

Usage (installed as a module)::

    python -m repro run QUERY.seraph STREAM.jsonl [--until ISO] \
        [--policy trailing|formal] [--all]
    python -m repro explain QUERY.seraph
    python -m repro validate QUERY.seraph
    python -m repro oneshot QUERY.cypher GRAPH.json
    python -m repro serve [--port N] [--tenants-config FILE] \
        [--allow-dynamic-tenants] [--snapshot FILE]

Streams are JSON-lines files (one ``{"instant": ..., "graph": ...}`` per
line, the format of :mod:`repro.graph.io`); graphs are JSON documents.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import EngineConfig, build_engine
from repro.cypher import run_cypher
from repro.errors import ReproError
from repro.graph.io import graph_from_json, stream_from_jsonl
from repro.graph.temporal import parse_datetime
from repro.seraph import CollectingSink, parse_seraph
from repro.seraph.explain import explain
from repro.stream.window import ActiveSubstreamPolicy

_POLICIES = {
    "trailing": ActiveSubstreamPolicy.TRAILING,
    "formal": ActiveSubstreamPolicy.EARLIEST_CONTAINING,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Run Seraph continuous queries over recorded "
        "property graph streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a continuous query")
    run.add_argument("query", help="path to a REGISTER QUERY file")
    run.add_argument("stream", help="path to a JSON-lines stream file")
    run.add_argument("--until", help="final instant (ISO-8601 datetime)")
    run.add_argument(
        "--policy", choices=sorted(_POLICIES), default="trailing",
        help="active-substream policy (DESIGN.md §3)",
    )
    run.add_argument(
        "--all", action="store_true",
        help="print empty emissions too",
    )
    run.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="enable the seeded chaos harness: inject poison payloads, "
        "displaced arrivals and sink failures, all deterministically "
        "from SEED (implies --resilient; docs/RESILIENCE.md)",
    )
    run.add_argument(
        "--resilient", action="store_true",
        help="give the engine a fault-tolerant ingress "
        "(poison quarantine, reordering, sink isolation)",
    )
    run.add_argument(
        "--allowed-lateness", type=int, default=0, metavar="SECONDS",
        help="out-of-order tolerance in stream seconds (implies "
        "--resilient)",
    )
    run.add_argument(
        "--on-poison", choices=["fail-fast", "skip", "dead-letter"],
        default="dead-letter",
        help="policy for malformed stream payloads (resilient runs)",
    )
    run.add_argument(
        "--on-late", choices=["fail-fast", "skip", "dead-letter"],
        default="dead-letter",
        help="policy for events beyond the allowed lateness",
    )
    run.add_argument(
        "--dead-letters", metavar="PATH",
        help="write the dead-letter quarantine as JSON lines",
    )
    run.add_argument(
        "--checkpoint-out", metavar="PATH",
        help="save an engine checkpoint after the run",
    )
    run.add_argument(
        "--restore", metavar="PATH",
        help="resume from a checkpoint instead of a fresh engine",
    )
    run.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the unified status document after the run — JSON by "
        "default, Prometheus text exposition when PATH ends in .prom "
        "(implies observability; docs/OBSERVABILITY.md)",
    )
    run.add_argument(
        "--trace-out", metavar="PATH",
        help="write the run's trace (span forest) as schema-stamped "
        "JSON (implies observability)",
    )
    run.add_argument(
        "--explain-analyze", action="store_true",
        help="print EXPLAIN plus observed per-stage timings to stderr "
        "after the run (implies observability)",
    )
    run.add_argument(
        "--explain-dataflow", action="store_true",
        help="print the dataflow DAG (stages, EMIT INTO streams, "
        "per-edge emission counts) to stderr after the run "
        "(implies observability; docs/DATAFLOW.md)",
    )
    run.add_argument(
        "--profile", nargs="?", const="", metavar="PATH", default=None,
        help="profile the run with cProfile: print the top functions to "
        "stderr, and dump binary pstats data to PATH when given",
    )

    exp = commands.add_parser("explain", help="show the execution outline")
    exp.add_argument("query", help="path to a REGISTER QUERY file")

    val = commands.add_parser("validate", help="parse-check a query file")
    val.add_argument("query", help="path to a REGISTER QUERY file")

    one = commands.add_parser(
        "oneshot", help="run a one-time Cypher query over a graph"
    )
    one.add_argument("query", help="path to a Cypher query file")
    one.add_argument("graph", help="path to a JSON graph file")

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant continuous-query HTTP service "
        "(docs/SERVICE.md)",
    )
    # Explicit flag > --tenants-config file > ServiceConfig default, so
    # every default is None here and resolution happens in _cmd_serve.
    serve.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port, default 8080 "
        "(0 binds an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--tenants-config", metavar="FILE",
        help="JSON service configuration (tenants, tokens, quotas, "
        "engine settings; docs/SERVICE.md has the schema)",
    )
    serve.add_argument(
        "--allow-dynamic-tenants", action="store_true", default=None,
        help="auto-create unknown tenants on first use (open tenants "
        "with default quotas; otherwise unknown tenants answer 404)",
    )
    serve.add_argument(
        "--snapshot", metavar="FILE",
        help="service snapshot file: restored on startup when present, "
        "written on clean shutdown (tenant checkpoint format)",
    )
    serve.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="idle interval between SSE heartbeat comments "
        "(default 15)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="SSE backpressure bound: consumers that cannot drain one "
        "frame within this window are circuit-broken (default 5)",
    )
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _wants_ingress(args: argparse.Namespace) -> bool:
    return bool(
        args.resilient
        or args.allowed_lateness
        or args.dead_letters
        or args.on_poison != "dead-letter"
        or args.on_late != "dead-letter"
        # Chaos injects poison payloads and sink failures; only the
        # ingress is built to absorb them.
        or args.chaos_seed is not None
    )


def _wants_observability(args: argparse.Namespace) -> bool:
    return bool(args.metrics_out or args.trace_out or args.explain_analyze
                or args.explain_dataflow)


def _run_config(args: argparse.Namespace) -> EngineConfig:
    """One declarative config for everything the run flags describe.

    The flags choose parts (ingress, observability), never an
    execution mode: those stay at the ``EngineConfig()`` defaults.
    """
    from repro.runtime import FaultPolicy
    from repro.runtime.faults import ChaosConfig

    return EngineConfig(
        policy=_POLICIES[args.policy],
        chaos=(
            ChaosConfig.profile(args.chaos_seed)
            if args.chaos_seed is not None else None
        ),
        resilient=_wants_ingress(args),
        allowed_lateness=args.allowed_lateness,
        poison_policy=FaultPolicy.parse(args.on_poison),
        late_policy=FaultPolicy.parse(args.on_late),
        observability=_wants_observability(args),
    )


def _restored(args: argparse.Namespace):
    """The engine in ``--restore``'s checkpoint; policy flags that were
    given override the checkpointed ingress's."""
    from repro.runtime import FaultPolicy, load_checkpoint

    tuning = {}
    if args.on_poison != "dead-letter":
        tuning["poison_policy"] = FaultPolicy.parse(args.on_poison)
    if args.on_late != "dead-letter":
        tuning["late_policy"] = FaultPolicy.parse(args.on_late)
    engine = load_checkpoint(args.restore, **tuning)
    if engine.ingress is None and _wants_ingress(args):
        raise ValueError(
            f"the engine checkpointed in {args.restore} has no ingress "
            "for the resilience flags to act on"
        )
    return engine


def _cmd_run(args: argparse.Namespace) -> int:
    until = parse_datetime(args.until) if args.until else None
    engine = _restored(args) if args.restore \
        else build_engine(_run_config(args))
    query = parse_seraph(_read(args.query))
    if query.name not in engine.query_names:
        engine.register(query)
    text = _read(args.stream)
    if engine.ingress is not None:
        # Feed raw lines so malformed ones hit the poison policy instead
        # of aborting the whole load.
        items = [line for line in text.splitlines() if line.strip()]
    else:
        items = stream_from_jsonl(text)
    with _maybe_profiled(args):
        engine.run_stream(items, until=until)
    _print_emissions(args, engine.sink(query.name))
    if engine.ingress is not None:
        print(engine.ingress.render(), file=sys.stderr)
    if args.dead_letters:
        with open(args.dead_letters, "w", encoding="utf-8") as handle:
            handle.write(engine.dead_letters.to_jsonl() + "\n")
        print(
            f"-- {len(engine.dead_letters)} dead-lettered inputs written "
            f"to {args.dead_letters}",
            file=sys.stderr,
        )
    if args.checkpoint_out:
        engine.save_checkpoint(args.checkpoint_out)
        print(f"-- checkpoint saved to {args.checkpoint_out}",
              file=sys.stderr)
    _write_observability(args, engine, query.name)
    return 0


def _maybe_profiled(args: argparse.Namespace):
    """A cProfile context when ``--profile`` was given, else a no-op."""
    from contextlib import nullcontext

    if args.profile is None:
        return nullcontext()
    from repro.obs.profile import profiled

    return profiled(
        path=args.profile or None, out=sys.stderr, top=15
    )


def _write_observability(
    args: argparse.Namespace, engine, query_name: str
) -> None:
    """Honor --metrics-out/--trace-out/--explain-analyze/--explain-dataflow."""
    if not _wants_observability(args):
        return
    from repro.obs.export import trace_document, write_json, write_prometheus
    from repro.seraph.explain import explain_analyze, explain_dataflow

    if args.metrics_out:
        if args.metrics_out.endswith(".prom"):
            write_prometheus(args.metrics_out, engine.obs.registry)
        else:
            write_json(args.metrics_out, engine.unified_status())
        print(f"-- metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        write_json(args.trace_out, trace_document(engine.obs.tracer))
        print(f"-- trace written to {args.trace_out}", file=sys.stderr)
    if args.explain_analyze:
        print(explain_analyze(engine, query_name), file=sys.stderr)
    if args.explain_dataflow:
        print(explain_dataflow(engine), file=sys.stderr)


def _print_emissions(args: argparse.Namespace, sink: CollectingSink) -> None:
    shown = 0
    for emission in sink.emissions:
        if emission.is_empty() and not args.all:
            continue
        print(emission.render())
        shown += 1
    print(
        f"-- {len(sink.emissions)} evaluations, {shown} shown "
        f"({len(sink.non_empty())} non-empty)",
        file=sys.stderr,
    )


def _cmd_explain(args: argparse.Namespace) -> int:
    print(explain(_read(args.query)))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    query = parse_seraph(_read(args.query))
    print(f"OK: query {query.name!r} parses "
          f"({len(query.body)} body clauses)")
    return 0


def _cmd_oneshot(args: argparse.Namespace) -> int:
    graph = graph_from_json(_read(args.graph))
    table = run_cypher(_read(args.query), graph)
    print(table.render())
    print(f"-- {len(table)} rows", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import os

    from repro.service.server import SeraphService, ServiceConfig

    overrides = {
        key: value
        for key, value in (
            ("host", args.host),
            ("port", args.port),
            ("allow_dynamic_tenants", args.allow_dynamic_tenants),
            ("heartbeat_seconds", args.heartbeat),
            ("drain_timeout", args.drain_timeout),
        )
        if value is not None
    }
    if args.tenants_config:
        config = ServiceConfig.from_file(args.tenants_config, **overrides)
    else:
        config = ServiceConfig(**overrides)

    async def serve() -> None:
        service = SeraphService(config)
        await service.start()
        if args.snapshot and os.path.exists(args.snapshot):
            with open(args.snapshot, "r", encoding="utf-8") as handle:
                service.manager.restore_snapshot(json.load(handle))
            print(f"-- restored snapshot from {args.snapshot}",
                  file=sys.stderr)
        print(
            f"repro service listening on http://{config.host}:"
            f"{service.port} ({len(service.manager.tenants)} tenants"
            f"{', dynamic' if config.allow_dynamic_tenants else ''})",
            file=sys.stderr,
        )
        try:
            # until Ctrl-C (see SeraphService.serve_forever)
            await asyncio.get_running_loop().create_future()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            if args.snapshot:
                snapshot = service.manager.snapshot()
                with open(args.snapshot, "w", encoding="utf-8") as handle:
                    json.dump(snapshot, handle, sort_keys=True)
                print(f"-- snapshot written to {args.snapshot}",
                      file=sys.stderr)
            await service.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "explain": _cmd_explain,
    "validate": _cmd_validate,
    "oneshot": _cmd_oneshot,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
