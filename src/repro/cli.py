"""Command-line interface: ``lockdoc <command>``.

Commands mirror the paper's pipeline and analysis tools:

=============  =====================================================
``trace``      run the benchmark mix, write the trace to a file
``derive``     run rule derivation, print winners per member
``check``      check the documented-rule corpus (Tab. 4 summary)
``docgen``     print generated locking documentation (Fig. 8 style)
``violations`` print the rule-violation summary (Tab. 7)
``experiment`` regenerate a specific table/figure by name
``stats``      trace statistics (Sec. 7.2)
``watch``      live-monitor a workload: streamed interval contention
``analyze``    derive rules from a previously saved trace file
``lockorder``  lockdep-style lock-order graph, ABBA candidates, cycles
``races``      lockset + happens-before race detection
``docpatch``   documentation patch: keep/update/add/review per member
``sql``        export the trace database to SQLite (Fig. 6 schema)
``contention`` Lockmeter-style lock-usage statistics
``relations``  object-relation classification of EO rules (Sec. 8)
``health``     lenient ingestion + TraceHealth damage report
``corrupt``    apply a seeded fault plan to a saved trace file
``fuzz``       coverage-guided workload fuzzing (run/replay/corpus/report)
``cache``      inspect/manage the on-disk trace cache (ls/clear/path)
``staticcheck`` static call-graph lock-context checker (run/report)
``serve``      always-on analysis daemon (run/status/stop)
=============  =====================================================

``derive`` and ``races`` also take ``--stream``: the trace is folded
*online* by the fused single-pass engine (:mod:`repro.stream`) while
the workload runs — no event list, no serialize/import round trip —
with output identical to the post-mortem path on clean traces.

``derive``/``check``/``violations``/``races``/``stats``/``health``
also take ``--remote``: the request is sent to a running analysis daemon
(:mod:`repro.serve`), which owns a shared warm cache and coalesces
duplicate in-flight work.  Output is byte-identical to local mode;
when the daemon is unreachable the client prints a one-line
``degraded:`` notice on stderr and computes locally.

The same subcommands take ``--backend memory|sqlite``: ``memory``
(default) analyzes the in-RAM :class:`TraceDatabase`; ``sqlite``
builds an out-of-core SQLite trace store
(:mod:`repro.db.sqlstore`) and streams derivation/checking/violation
queries from disk — byte-identical output with bounded resident
memory.  ``--backend`` composes with ``--remote``.

Trace-producing subcommands take ``--workload``, resolved through the
central :mod:`repro.workloads.registry` — built-ins (``mix``,
``racer``, ``racer-safe``) or a fuzzed corpus (``fuzz:<file>`` /
``fuzz:<corpus-id>``).  Built-in workload runs are served from the
content-addressed on-disk trace cache (:mod:`repro.cache`) unless
``--no-cache`` is given.

Every subcommand taking a file input exits with status 2 and a
one-line ``error: ...`` on empty, unreadable or malformed inputs —
never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.docgen import DocOptions, generate_doc
from repro.core.report import render_table
from repro.core.violations import ViolationFinder
from repro.doc.corpus import documented_rules
from repro.experiments import common as experiments_common
from repro.workloads import registry, subsystems

#: Another subsystem's Tab. 3/Tab. 6 column runs as ``<table><name>``.
_COLUMN_EXPERIMENTS = {
    f"{table}{name}": (table, name)
    for name in subsystems.SUBSYSTEMS if name != subsystems.DEFAULT
    for table in ("tab3", "tab6")
}

_EXPERIMENTS = (
    "fig1", "tab1", "tab2", "tab3", "tab4", "tab5", "tab6",
    "fig7", "tab7", "tab8", "fig8", "stats", *_COLUMN_EXPERIMENTS,
)


def _add_pipeline_args(
    parser: argparse.ArgumentParser, workload_default: str = "mix"
) -> None:
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--scale", type=float, default=experiments_common.DEFAULT_SCALE,
        help="workload scale factor",
    )
    parser.add_argument(
        "--workload", default=workload_default, metavar="NAME",
        help="trace source from the workload registry: mix, racer, "
        "racer-safe, netbench, sockstress, netmix, or "
        "fuzz:<corpus-file> "
        f"(default: {workload_default})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk trace cache: re-run the workload and "
        "recompute every artifact (see `lockdoc cache`)",
    )


def _add_remote_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--remote", action="store_true",
        help="send this request to the analysis daemon (`lockdoc serve "
        "run`); output is identical to local mode; falls back to local "
        "computation with a `degraded:` stderr notice when unreachable",
    )


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=experiments_common.BACKENDS,
        default=experiments_common.DEFAULT_BACKEND,
        help="trace query backend: `memory` holds the whole TraceDatabase "
        "in RAM; `sqlite` builds an out-of-core store and streams "
        "queries from disk (identical output, bounded memory)",
    )


def _add_stream_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stream", action="store_true",
        help="fold the trace online while the workload runs (single "
        "fused pass, no serialize/import round trip); identical output "
        "on clean traces; memory backend only, not combinable with "
        "--remote",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockdoc",
        description="LockDoc reproduction: trace-based locking-rule analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="run the benchmark mix and save the trace")
    _add_pipeline_args(trace)
    trace.add_argument("output", help="trace file (.txt for text, .bin for binary)")

    derive = sub.add_parser("derive", help="derive locking rules")
    _add_pipeline_args(derive)
    _add_backend_arg(derive)
    _add_remote_arg(derive)
    derive.add_argument("--type", default="", help="restrict to one type key")
    derive.add_argument(
        "--threshold", type=float, default=0.9, help="accept threshold t_ac"
    )
    derive.add_argument(
        "--json", default="", metavar="FILE",
        help="also write the machine-readable rule export (summary mode)",
    )
    _add_stream_arg(derive)

    check = sub.add_parser("check", help="check documented rules (Tab. 4)")
    _add_pipeline_args(check)
    _add_backend_arg(check)
    _add_remote_arg(check)

    docgen = sub.add_parser("docgen", help="generate documentation (Fig. 8)")
    _add_pipeline_args(docgen)
    docgen.add_argument("--type", default="inode:ext4", help="type key to document")

    violations = sub.add_parser("violations", help="find rule violations (Tab. 7)")
    _add_pipeline_args(violations)
    _add_backend_arg(violations)
    _add_remote_arg(violations)
    violations.add_argument(
        "--examples", type=int, default=0, help="also print the N largest violations"
    )

    experiment = sub.add_parser("experiment", help="regenerate a table/figure")
    experiment.add_argument("name", choices=_EXPERIMENTS)
    _add_pipeline_args(experiment)

    stats = sub.add_parser("stats", help="trace statistics (Sec. 7.2)")
    _add_pipeline_args(stats)
    _add_backend_arg(stats)
    _add_remote_arg(stats)

    analyze = sub.add_parser(
        "analyze", help="derive rules from a saved trace file"
    )
    analyze.add_argument("trace", help="trace file written by `lockdoc trace`")
    analyze.add_argument("--type", default="", help="restrict to one type key")
    analyze.add_argument("--threshold", type=float, default=0.9)

    lockorder = sub.add_parser(
        "lockorder", help="lock-order graph + ABBA candidates + cycles"
    )
    _add_pipeline_args(lockorder)

    races = sub.add_parser(
        "races", help="lockset + happens-before race detection"
    )
    _add_pipeline_args(races, workload_default="racer")
    _add_backend_arg(races)
    _add_remote_arg(races)
    races.add_argument(
        "--examples", type=int, default=0,
        help="print details for the first N findings (default: racy only)",
    )
    races.add_argument(
        "--threshold", type=float, default=0.9, help="accept threshold t_ac"
    )
    _add_stream_arg(races)

    watch = sub.add_parser(
        "watch", help="live-monitor a workload with the streaming engine"
    )
    _add_pipeline_args(watch)
    watch.add_argument(
        "--interval", type=int, default=2000, metavar="TICKS",
        help="tick-window width in simulated trace-clock ticks "
        "(default: 2000)",
    )
    watch.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="hottest lock classes printed per interval (default: 5)",
    )
    watch.add_argument(
        "--limit", type=int, default=12,
        help="lock classes in the final cumulative summary (default: 12)",
    )

    docpatch = sub.add_parser(
        "docpatch", help="documentation patch (keep/update/add/review)"
    )
    _add_pipeline_args(docpatch)
    docpatch.add_argument("--type", default="inode", help="base data type")

    sql = sub.add_parser("sql", help="export the trace database to SQLite")
    _add_pipeline_args(sql)
    sql.add_argument("output", help="SQLite file to write")

    contention = sub.add_parser(
        "contention", help="Lockmeter-style lock-usage statistics"
    )
    _add_pipeline_args(contention)
    contention.add_argument("--limit", type=int, default=12)

    relations = sub.add_parser(
        "relations", help="object-relation classification of EO rules"
    )
    _add_pipeline_args(relations)

    health = sub.add_parser(
        "health", help="lenient trace ingestion + TraceHealth report"
    )
    health.add_argument("trace", help="trace file (text or binary, may be damaged)")
    health.add_argument(
        "--registry", choices=tuple(registry.RECIPES), default="vfs",
        help="struct registry the trace was recorded against "
        "(`net` = the combined vfs+net recipe)",
    )
    health.add_argument(
        "--budget", type=float, default=0.25,
        help="error budget: max tolerated malformed fraction (1.0 = off)",
    )
    health.add_argument(
        "--diagnostics", type=int, default=10,
        help="how many parse diagnostics to print",
    )
    _add_backend_arg(health)
    _add_remote_arg(health)

    corrupt = sub.add_parser(
        "corrupt", help="apply a seeded fault plan to a saved trace"
    )
    corrupt.add_argument("input", help="clean trace file (from `trace`)")
    corrupt.add_argument("output", help="corrupted trace file to write")
    corrupt.add_argument(
        "--ops", default="drop:0.02,mangle:0.02",
        help="fault spec: name[:param],... (see repro.faults)",
    )
    corrupt.add_argument("--seed", type=int, default=0, help="fault plan seed")

    fuzz = sub.add_parser(
        "fuzz", help="coverage-guided workload fuzzing (repro.fuzz)"
    )
    fuzz_sub = fuzz.add_subparsers(dest="action", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a fuzzing campaign and save the corpus"
    )
    fuzz_run.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz_run.add_argument(
        "--subsystem", choices=tuple(subsystems.SUBSYSTEMS),
        default=subsystems.DEFAULT,
        help="which simulated slice to fuzz (baseline: mix for vfs, "
        "netbench for net)",
    )
    fuzz_run.add_argument(
        "--generations", type=int, default=3, help="fuzzing generations"
    )
    fuzz_run.add_argument(
        "--population", type=int, default=8, help="candidates per generation"
    )
    fuzz_run.add_argument(
        "--baseline-scale", type=float, default=1.0,
        help="scale of the seed (mix) workload the frontier starts from",
    )
    fuzz_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for candidate execution "
        "(bit-identical to serial; default: serial)",
    )
    fuzz_run.add_argument(
        "--out", default="corpus.json", help="corpus file to write"
    )

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-execute a saved corpus, verify coverage bit-for-bit"
    )
    fuzz_replay.add_argument("corpus", help="corpus file from `fuzz run`")

    fuzz_corpus = fuzz_sub.add_parser(
        "corpus", help="inspect (and optionally minimize) a saved corpus"
    )
    fuzz_corpus.add_argument("corpus", help="corpus file from `fuzz run`")
    fuzz_corpus.add_argument(
        "--minimize", default="", metavar="FILE",
        help="write a coverage-preserving minimal corpus to FILE",
    )

    fuzz_report = fuzz_sub.add_parser(
        "report", help="mix-only vs mix+fuzz comparison report"
    )
    fuzz_report.add_argument("corpus", help="corpus file from `fuzz run`")
    fuzz_report.add_argument("--seed", type=int, default=0)
    fuzz_report.add_argument(
        "--scale", type=float, default=1.0, help="mix scale for the comparison"
    )
    fuzz_report.add_argument("--threshold", type=float, default=0.9)

    staticcheck = sub.add_parser(
        "staticcheck", help="static call-graph lock-context checker"
    )
    static_sub = staticcheck.add_subparsers(dest="action", required=True)

    static_run = static_sub.add_parser(
        "run", help="run the static analysis, print outliers + score"
    )
    static_run.add_argument(
        "--threshold", type=float, default=0.7,
        help="majority-context threshold (fraction of paths)",
    )
    static_run.add_argument(
        "--depth", type=int, default=8,
        help="context-string bound: max call-chain length",
    )
    static_run.add_argument(
        "--paths", type=int, default=None, metavar="K",
        help="locked call chains per target (corpus shape; default 3)",
    )
    static_run.add_argument(
        "--findings", type=int, default=20, metavar="N",
        help="print at most N findings (0 = all)",
    )
    static_run.add_argument(
        "--json", default="", metavar="FILE",
        help="write the machine-readable static report",
    )

    static_report = static_sub.add_parser(
        "report", help="fuse static findings with dynamically mined rules"
    )
    _add_pipeline_args(static_report)
    static_report.add_argument(
        "--rules", default="", metavar="FILE",
        help="rule export from `lockdoc derive --json` "
        "(default: derive in-process from the pipeline)",
    )
    static_report.add_argument("--threshold", type=float, default=0.7)
    static_report.add_argument("--depth", type=int, default=8)
    static_report.add_argument(
        "--json", default="", metavar="FILE",
        help="write the machine-readable fusion report",
    )

    cache_p = sub.add_parser(
        "cache", help="inspect/manage the on-disk trace cache"
    )
    cache_sub = cache_p.add_subparsers(dest="action", required=True)
    cache_sub.add_parser("ls", help="list cached traces and artifacts")
    cache_sub.add_parser("clear", help="delete every cache entry")
    cache_sub.add_parser("path", help="print the cache directory")

    serve = sub.add_parser(
        "serve", help="always-on analysis daemon (run/status/stop)"
    )
    serve_sub = serve.add_subparsers(dest="action", required=True)

    serve_run = serve_sub.add_parser(
        "run", help="serve in the foreground until signalled"
    )
    serve_run.add_argument(
        "--socket", default="", metavar="PATH",
        help="unix socket path (default: <cache dir>/serve/serve.sock)",
    )
    serve_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="long-lived worker processes (max concurrent requests)",
    )
    serve_run.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission limit before load shedding (RETRY_AFTER)",
    )
    serve_run.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="per-client token-bucket refill rate (requests/second)",
    )
    serve_run.add_argument(
        "--burst", type=float, default=None, metavar="B",
        help="per-client token-bucket burst capacity",
    )
    serve_run.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="default per-request deadline in seconds",
    )
    serve_run.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="bounded re-executions after a worker crash",
    )
    serve_run.add_argument(
        "--chaos", default="", metavar="SPEC",
        help="fault-injection drill inside workers: name[:param],... "
        "(crash, stall, stall-sometimes; see repro.faults.daemon)",
    )
    serve_run.add_argument("--chaos-seed", type=int, default=0)
    serve_run.add_argument(
        "--log", default="", metavar="FILE",
        help="structured JSON-lines log "
        "(default: <cache dir>/serve/serve.log.jsonl)",
    )
    serve_run.add_argument(
        "--no-sweep", action="store_true",
        help="skip the startup recovery sweep of the cache",
    )

    serve_status = serve_sub.add_parser(
        "status", help="ask a running daemon for its counters"
    )
    serve_status.add_argument("--socket", default="", metavar="PATH")
    serve_status.add_argument(
        "--json", action="store_true", help="print the raw status object"
    )

    serve_stop = serve_sub.add_parser(
        "stop", help="stop a running daemon (graceful, then SIGTERM)"
    )
    serve_stop.add_argument("--socket", default="", metavar="PATH")
    serve_stop.add_argument(
        "--timeout", type=float, default=10.0,
        help="seconds to wait for the daemon to exit",
    )

    return parser


def _pipeline(args):
    """The cached pipeline for the subcommand's (workload, seed, scale)."""
    return experiments_common.get_pipeline(
        args.seed, args.scale, workload=getattr(args, "workload", "mix")
    )


def _cmd_trace(args) -> int:
    from repro.tracing import serialize
    pipeline = _pipeline(args)
    tracer = pipeline.mix.tracer
    if args.output.endswith(".bin"):
        with open(args.output, "wb") as fp:
            serialize.dump_binary(tracer, fp)
    else:
        with open(args.output, "w") as fp:
            serialize.dump_text(tracer, fp)
    print(f"wrote {len(tracer.events)} events to {args.output}")
    return 0


def _pipeline_params(args) -> dict:
    params = {"workload": args.workload, "seed": args.seed, "scale": args.scale}
    backend = getattr(args, "backend", None)
    if backend is not None:
        params["backend"] = backend
    return params


def _execute_op(args, op: str, params: dict) -> dict:
    """Run one :mod:`repro.serve.ops` operation, locally by default.

    With ``--remote`` the request goes to the analysis daemon; an
    unreachable daemon degrades to local computation (flagged on
    stderr), and a classified remote error surfaces through the
    standard ``error:``/exit-2 contract.  Both paths execute the same
    runner, so the printed result is identical either way.
    """
    from repro.serve import ops

    if not getattr(args, "remote", False):
        return ops.execute(op, params)
    if getattr(args, "no_cache", False):
        raise ValueError(
            "--remote cannot be combined with --no-cache "
            "(the daemon owns the shared cache)"
        )
    from repro.serve.client import DaemonUnreachable, RemoteClient, RemoteError

    try:
        return RemoteClient().request(op, params).result
    except DaemonUnreachable as exc:
        print(f"degraded: {exc}; computing locally", file=sys.stderr)
        return ops.execute(op, params)
    except RemoteError as exc:
        raise ValueError(f"remote {exc.kind}: {exc.message}") from None


def _check_stream_flags(args) -> None:
    """``--stream`` is a local, in-memory fused pass by definition."""
    if getattr(args, "remote", False):
        raise ValueError(
            "--stream cannot be combined with --remote (the stream is "
            "this process's live workload run)"
        )
    if getattr(args, "backend", "memory") != "memory":
        raise ValueError(
            "--stream supports only the memory backend (the fused pass "
            "never builds a store)"
        )


def _cmd_derive(args) -> int:
    params = {
        **_pipeline_params(args),
        "threshold": args.threshold,
        "type": args.type,
        "want_rules_json": bool(args.json),
    }
    if args.stream:
        from repro.stream import run_derive_streamed

        _check_stream_flags(args)
        params.pop("backend", None)
        result = run_derive_streamed(params)
    else:
        result = _execute_op(args, "derive", params)
    if args.json:
        with open(args.json, "w") as fp:
            fp.write(result["rules_json"])
        print(f"wrote rule export to {args.json}")
    print(result["text"])
    return result["exit_code"]


def _cmd_check(args) -> int:
    result = _execute_op(args, "check", _pipeline_params(args))
    print(result["text"])
    return result["exit_code"]


def _cmd_docgen(args) -> int:
    pipeline = _pipeline(args)
    derivation = pipeline.derive()
    print(generate_doc(derivation, args.type, DocOptions()))
    return 0


def _cmd_violations(args) -> int:
    params = {**_pipeline_params(args), "examples": args.examples}
    result = _execute_op(args, "violations", params)
    print(result["text"])
    return result["exit_code"]


def _cmd_experiment(args) -> int:
    import importlib

    if args.workload != "mix":
        # The paper tables are defined over the benchmark mix; the net
        # analogues (tab3net/tab6net) run their own netbench trace.
        print(
            "error: experiments reproduce paper tables over the benchmark "
            "mix and do not accept --workload (net-only workloads "
            "included; tab3net/tab6net already run netbench internally)",
            file=sys.stderr,
        )
        return 2
    name, column = args.name, {}
    if name in _COLUMN_EXPERIMENTS:
        name, column["subsystem"] = _COLUMN_EXPERIMENTS[name]
    module = importlib.import_module(f"repro.experiments.{name}")
    if name in ("fig1", "tab1", "tab2"):
        result = module.run()
    else:
        result = module.run(seed=args.seed, scale=args.scale, **column)
    print(result.render())
    return 0


def _cmd_stats(args) -> int:
    result = _execute_op(args, "stats", _pipeline_params(args))
    print(result["text"])
    return result["exit_code"]


def _cmd_watch(args) -> int:
    from repro.stream import run_streamed

    if args.interval < 1:
        raise ValueError(f"--interval {args.interval} must be >= 1")
    run = run_streamed(
        args.workload,
        args.seed,
        args.scale,
        interval=args.interval,
        interval_callback=lambda report: print(report.format(), flush=True),
        top=args.top,
    )
    engine = run.engine
    print(
        f"watched {args.workload}: {engine.total_events} events in "
        f"{len(engine.interval_reports)} interval(s) of "
        f"{args.interval} ticks"
    )
    print(engine.contention_report().render(limit=args.limit))
    return 0


def _cmd_analyze(args) -> int:
    from repro.core.derivator import Derivator
    from repro.core.observations import ObservationTable
    from repro.db.importer import import_trace
    from repro.tracing import serialize

    events, stacks = serialize.load_path(args.trace).as_tuple()
    db = import_trace(events, stacks, *registry.database_inputs("vfs"))
    table = ObservationTable.from_database(db)
    derivation = Derivator(args.threshold).derive(table)
    rows = [
        [d.type_key, d.member, d.access_type, d.rule.format(),
         f"{d.winner.s_r:.2%}"]
        for d in derivation.all()
        if not args.type or d.type_key == args.type
    ]
    print(render_table(
        ["type", "member", "r/w", "winning rule", "s_r"], rows,
        title=f"rules derived from {args.trace} ({len(events)} events)",
    ))
    return 0


def _cmd_lockorder(args) -> int:
    from repro.core.lockorder import build_lock_order

    print(build_lock_order(_pipeline(args).db).render())
    return 0


def _cmd_races(args) -> int:
    params = {
        **_pipeline_params(args),
        "threshold": args.threshold,
        "examples": args.examples,
    }
    if args.stream:
        from repro.stream import run_races_streamed

        _check_stream_flags(args)
        params.pop("backend", None)
        result = run_races_streamed(params)
    else:
        result = _execute_op(args, "races", params)
    print(result["text"])
    return result["exit_code"]


def _cmd_docpatch(args) -> int:
    from repro.core.docdiff import build_doc_patch

    pipeline = _pipeline(args)
    patch = build_doc_patch(pipeline.derive(), documented_rules(), args.type)
    print(patch.render())
    return 0


def _cmd_contention(args) -> int:
    from repro.core.contention import build_contention

    pipeline = _pipeline(args)
    report = build_contention(pipeline.mix.tracer.events, pipeline.db)
    print(report.render(limit=args.limit))
    return 0


def _cmd_relations(args) -> int:
    from repro.core.relations import analyze_relations

    pipeline = _pipeline(args)
    report = analyze_relations(pipeline.derive(), pipeline.db)
    print(report.render())
    return 0


def _cmd_sql(args) -> int:
    from repro.db.sqlbackend import export_sqlite, table_counts

    pipeline = _pipeline(args)
    connection = export_sqlite(pipeline.db, args.output)
    counts = table_counts(connection)
    connection.close()
    rows = sorted(counts.items())
    print(render_table(["table", "rows"], rows, title=f"exported {args.output}"))
    return 0


def _cmd_health(args) -> int:
    import os

    trace = args.trace
    if getattr(args, "remote", False):
        # The daemon runs in its own cwd: a relative path must be
        # resolved on the client side to name the same file.
        trace = os.path.abspath(trace)
    params = {
        "trace": trace,
        "registry": args.registry,
        "budget": args.budget,
        "diagnostics": args.diagnostics,
        "backend": args.backend,
    }
    result = _execute_op(args, "health", params)
    print(result["text"])
    return result["exit_code"]


def _cmd_corrupt(args) -> int:
    from repro.faults import FaultPlan

    plan = FaultPlan.from_spec(args.ops, seed=args.seed)
    with open(args.input, "rb") as fp:
        data = fp.read()
    if not data:
        raise ValueError(f"empty trace file {args.input!r}")
    if data.startswith(b"LDOC1"):
        out = plan.corrupt_binary(data)
        with open(args.output, "wb") as fp:
            fp.write(out)
        size_note = f"{len(data)} -> {len(out)} bytes"
    else:
        out_text = plan.corrupt_text(data.decode("utf-8"))
        with open(args.output, "w") as fp:
            fp.write(out_text)
        size_note = f"{len(data)} -> {len(out_text)} chars"
    print(f"applied {plan.describe()}")
    print(f"wrote {args.output} ({size_note})")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import Corpus, FuzzConfig, FuzzOrchestrator, replay_corpus

    if args.action == "run":
        config = FuzzConfig(
            seed=args.seed,
            generations=args.generations,
            population=args.population,
            baseline_scale=args.baseline_scale,
            jobs=args.jobs,
            subsystem=args.subsystem,
        )
        outcome = FuzzOrchestrator(config, progress=print).run()
        corpus = outcome.corpus
        corpus.save(args.out)
        name = registry.register_corpus(corpus)
        baseline_name = subsystems.get(args.subsystem).baseline
        print(
            f"wrote {args.out}: {len(corpus.entries)} programs, "
            f"{corpus.global_coverage.pair_count} pairs "
            f"(+{outcome.pair_growth:.1%} over the {baseline_name} baseline)"
        )
        print(f"registered as workload {name!r} "
              f"(also runnable as fuzz:{args.out})")
        return 0

    corpus = Corpus.load(args.corpus)
    if args.action == "replay":
        result = replay_corpus(corpus)
        status = "identical" if result.identical else "DIVERGED"
        print(
            f"replayed {result.entries} programs: coverage {status} "
            f"({result.pair_coverage} pairs)"
        )
        if not result.identical:
            print(f"mismatching entries: {result.mismatches}", file=sys.stderr)
            return 1
        return 0
    if args.action == "corpus":
        rows = [
            [e.entry_id, e.generation, len(e.program.threads),
             e.program.op_count, e.novel.pair_count, e.novel.function_count,
             f"{e.energy:.0f}"]
            for e in corpus.entries
        ]
        print(render_table(
            ["id", "gen", "threads", "ops", "new pairs", "new funcs", "energy"],
            rows,
            title=f"corpus {corpus.corpus_id} "
            f"({corpus.global_coverage.pair_count} pairs total)",
        ))
        if args.minimize:
            minimized = corpus.minimize()
            minimized.save(args.minimize)
            print(
                f"minimized {len(corpus.entries)} -> "
                f"{len(minimized.entries)} programs, wrote {args.minimize}"
            )
        return 0
    # report
    from repro.fuzz.report import build_fuzz_report

    report = build_fuzz_report(
        corpus, seed=args.seed, scale=args.scale, threshold=args.threshold
    )
    print(report.render())
    return 0


def _cmd_staticcheck(args) -> int:
    import json

    from repro.staticcheck import fuse, run_static_analysis

    if args.action == "report":
        # Resolve the dynamic side first: a bad --rules file must fail
        # fast (exit 2) before any static-analysis work starts.
        import os

        from repro.core.rulesio import rules_from_json, rules_to_json

        violations = None
        if args.rules:
            if os.path.getsize(args.rules) == 0:
                raise ValueError(f"empty rule export {args.rules!r}")
            with open(args.rules) as fp:
                rules = rules_from_json(fp.read())
        else:
            pipeline = _pipeline(args)
            derivation = pipeline.derive()
            rules = rules_from_json(rules_to_json(derivation))
            violations = ViolationFinder(derivation, pipeline.table).find()
        result = run_static_analysis(
            threshold=args.threshold, max_depth=args.depth
        )
        fusion = fuse(result.report, rules, violations)
        print(fusion.render())
        if args.json:
            with open(args.json, "w") as fp:
                json.dump(fusion.to_json_dict(), fp, indent=2, sort_keys=True)
                fp.write("\n")
            print(f"wrote fusion report to {args.json}")
        return 0

    # run
    result = run_static_analysis(
        threshold=args.threshold, max_depth=args.depth,
        locked_paths=args.paths,
    )
    print(result.report.render(limit=args.findings))
    score = result.score
    print(
        f"score vs planted ground truth: precision {score.precision:.2f} "
        f"recall {score.recall:.2f} (tp={score.tp} fp={score.fp} "
        f"fn={score.fn}, planted={score.tp + score.fn})"
    )
    if args.json:
        payload = {
            "report": result.report.to_json_dict(),
            "score": {
                "precision": round(score.precision, 4),
                "recall": round(score.recall, 4),
                "tp": score.tp,
                "fp": score.fp,
                "fn": score.fn,
            },
            "planted": [
                {"target": f"{t}.{m}:{a}", "reason": p.reason}
                for p in sorted(result.plan.planted, key=lambda p: p.key)
                for t, m, a in [p.key]
            ],
        }
        with open(args.json, "w") as fp:
            json.dump(payload, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote static report to {args.json}")
    return 0


def _cmd_cache(args) -> int:
    from repro import cache

    if args.action == "path":
        print(cache.cache_dir())
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache files from {cache.cache_dir()}")
        return 0
    # ls
    rows = [
        [
            e.get("workload", "?"),
            e.get("seed", "?"),
            e.get("scale", "?"),
            e.get("events", "?"),
            f"{e.get('bytes', 0) / 1e6:.1f}",
            e.get("artifacts", 0),
            f"{e.get('artifact_bytes', 0) / 1e6:.1f}",
            e.get("key", "?"),
        ]
        for e in cache.entries()
    ]
    print(render_table(
        ["workload", "seed", "scale", "events", "trace MB",
         "artifacts", "artifact MB", "key"],
        rows, title=f"trace cache at {cache.cache_dir()}",
    ))
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import daemon as serve_daemon

    if args.action == "run":
        import os

        config = serve_daemon.build_config(
            socket_path=args.socket or None,
            workers=args.workers,
            max_inflight=args.max_inflight,
            bucket_rate=args.rate,
            bucket_burst=args.burst,
            default_deadline=args.deadline,
            max_retries=args.max_retries,
            chaos_spec=args.chaos or None,
            chaos_seed=args.chaos_seed,
            log_path=args.log or None,
            skip_sweep=args.no_sweep,
        )
        print(f"serving on {config.socket_path} (pid {os.getpid()})", flush=True)
        return serve_daemon.run(config)

    if args.action == "status":
        payload = serve_daemon.status(args.socket or None)
        if args.json:
            import json

            print(json.dumps(payload, indent=2, sort_keys=True))
        elif payload["running"]:
            counters = payload.get("counters", {})
            print(f"running: pid {payload.get('pid')} on {payload['socket']}")
            print(
                f"uptime {payload.get('uptime_s', 0):.0f}s, "
                f"workers {payload.get('workers')}, "
                f"active {payload.get('active')}, "
                f"requests {counters.get('received', 0)} "
                f"(ok {counters.get('ok', 0)}, "
                f"coalesced {counters.get('coalesced', 0)}, "
                f"shed {counters.get('shed', 0)})"
            )
        else:
            print(f"not running (socket {payload['socket']})")
            if payload.get("note"):
                print(payload["note"])
        return 0 if payload["running"] else 2

    # stop
    if serve_daemon.stop(args.socket or None, timeout=args.timeout):
        print("daemon stopped")
        return 0
    print(
        "error: no daemon stopped (not running, or it did not exit in time)",
        file=sys.stderr,
    )
    return 2


_HANDLERS = {
    "trace": _cmd_trace,
    "derive": _cmd_derive,
    "check": _cmd_check,
    "docgen": _cmd_docgen,
    "violations": _cmd_violations,
    "experiment": _cmd_experiment,
    "stats": _cmd_stats,
    "watch": _cmd_watch,
    "analyze": _cmd_analyze,
    "lockorder": _cmd_lockorder,
    "races": _cmd_races,
    "docpatch": _cmd_docpatch,
    "sql": _cmd_sql,
    "contention": _cmd_contention,
    "relations": _cmd_relations,
    "health": _cmd_health,
    "corrupt": _cmd_corrupt,
    "fuzz": _cmd_fuzz,
    "cache": _cmd_cache,
    "staticcheck": _cmd_staticcheck,
    "serve": _cmd_serve,
}


class _Terminated(Exception):
    """SIGTERM arrived: unwind for a clean exit (code 143)."""


def _raise_terminated(signum, frame):
    raise _Terminated()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse arguments and dispatch to a handler.

    Input problems (missing/empty/malformed trace files, bad fault
    specs, exceeded error budgets in strict paths) surface as a
    one-line ``error: ...`` on stderr and exit status 2 — never as a
    traceback.  Long-running subcommands (fuzz, experiment,
    staticcheck, serve) interrupted by SIGINT/SIGTERM exit with the
    conventional codes 130/143 and a one-line message, also without a
    traceback.
    """
    args = _build_parser().parse_args(argv)
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        print(f"error: --jobs {jobs} must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "no_cache", False):
        from repro import cache

        cache.set_enabled(False)
    import signal as signal_mod

    previous_sigterm = None
    try:
        # Only the main thread may install handlers; in-process callers
        # (tests, embedding) from other threads keep their own.
        previous_sigterm = signal_mod.signal(
            signal_mod.SIGTERM, _raise_terminated
        )
    except ValueError:
        pass
    try:
        return _HANDLERS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted (SIGINT)", file=sys.stderr)
        return 130
    except _Terminated:
        print("terminated (SIGTERM)", file=sys.stderr)
        return 143
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous_sigterm is not None:
            try:
                signal_mod.signal(signal_mod.SIGTERM, previous_sigterm)
            except ValueError:
                pass


if __name__ == "__main__":
    sys.exit(main())
