"""The daemon's operation registry.

One table maps each remote-able pipeline operation (``derive``,
``check``, ``violations``, ``races``, ``stats``, ``health``) to a
**validator**
(raw request params → canonical params, raising ``ValueError`` on
anything unknown or mistyped — classified ``BAD_REQUEST`` at the
envelope) and a **runner** (canonical params → JSON-able result dict
with the rendered ``text`` and an ``exit_code``).

The CLI's local path and the daemon's workers call the *same* runner
functions, so ``lockdoc derive`` and ``lockdoc derive --remote`` print
byte-identical output — remote mode changes where the computation
happens, never what it answers.  Canonical params also feed
:func:`repro.serve.protocol.request_key`, so validation doubles as the
coalescing normalizer: two requests that differ only in param spelling
(``seed: "0"`` vs ``seed: 0``) share one in-flight execution.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro import cache
from repro.core.selection import DEFAULT_ACCEPT_THRESHOLD
from repro.experiments import common as experiments_common
from repro.workloads.registry import RECIPES

#: field -> (coercer, default); a default of ``_REQUIRED`` must be given.
_REQUIRED = object()


def _as_int(value: Any) -> int:
    if isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _as_float(value: Any) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _as_str(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _as_bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


def _as_backend(value: Any) -> str:
    backend = _as_str(value)
    if backend not in experiments_common.BACKENDS:
        known = ", ".join(experiments_common.BACKENDS)
        raise ValueError(f"unknown backend {backend!r} (known: {known})")
    return backend


_PIPELINE_FIELDS: Dict[str, Tuple[Callable[[Any], Any], Any]] = {
    "workload": (_as_str, "mix"),
    "seed": (_as_int, 0),
    "scale": (_as_float, experiments_common.DEFAULT_SCALE),
    "backend": (_as_backend, experiments_common.DEFAULT_BACKEND),
}

_SPECS: Dict[str, Dict[str, Tuple[Callable[[Any], Any], Any]]] = {
    "derive": {
        **_PIPELINE_FIELDS,
        "threshold": (_as_float, 0.9),
        "type": (_as_str, ""),
        "want_rules_json": (_as_bool, False),
    },
    "check": dict(_PIPELINE_FIELDS),
    "violations": {**_PIPELINE_FIELDS, "examples": (_as_int, 0)},
    "races": {
        **_PIPELINE_FIELDS,
        "threshold": (_as_float, 0.9),
        "examples": (_as_int, 0),
    },
    "stats": dict(_PIPELINE_FIELDS),
    "health": {
        "trace": (_as_str, _REQUIRED),
        "registry": (_as_str, "vfs"),
        "budget": (_as_float, 0.25),
        "diagnostics": (_as_int, 10),
        "backend": (_as_backend, experiments_common.DEFAULT_BACKEND),
    },
}


def operation_names() -> Tuple[str, ...]:
    return tuple(sorted(_SPECS))


def validate(op: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Canonicalize *params* for *op*; raises ``ValueError`` on junk."""
    spec = _SPECS.get(op)
    if spec is None:
        known = ", ".join(operation_names())
        raise ValueError(f"unknown operation {op!r} (known: {known})")
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise ValueError(f"unknown parameter(s) for {op!r}: {', '.join(unknown)}")
    canonical: Dict[str, Any] = {}
    for name, (coerce, default) in spec.items():
        if name in params:
            try:
                canonical[name] = coerce(params[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad parameter {name!r} for {op!r}: {exc}") from None
        elif default is _REQUIRED:
            raise ValueError(f"missing required parameter {name!r} for {op!r}")
        else:
            canonical[name] = default
    if op == "health" and canonical["registry"] not in RECIPES:
        raise ValueError(f"unknown registry {canonical['registry']!r}")
    return canonical


# ---------------------------------------------------------------------
# Runners (execute in worker processes; also the CLI's local path)
# ---------------------------------------------------------------------

def _pipeline(params: Dict[str, Any]):
    return experiments_common.get_pipeline(
        params["seed"], params["scale"], workload=params["workload"]
    )


def _table_for(pipeline, params: Dict[str, Any]):
    """The split observation table under the requested backend."""
    if params["backend"] == "sqlite":
        return pipeline.sqlite_table()
    return pipeline.table


def _run_derive(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.report import render_table

    pipeline = _pipeline(params)
    derivation = pipeline.derive(params["threshold"], backend=params["backend"])
    rows = []
    for d in derivation.all():
        if params["type"] and d.type_key != params["type"]:
            continue
        rows.append(
            [d.type_key, d.member, d.access_type, d.rule.format(),
             f"{d.winner.s_r:.2%}", d.observation_count]
        )
    text = render_table(
        ["type", "member", "r/w", "winning rule", "s_r", "n"], rows,
        title=f"derived locking rules (t_ac={params['threshold']})",
    )
    result: Dict[str, Any] = {"text": text, "exit_code": 0, "rules": len(rows)}
    if params["want_rules_json"]:
        from repro.core.rulesio import rules_to_json

        result["rules_json"] = rules_to_json(derivation)
    return result


def _run_check(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.checker import check_rules, summarize as summarize_checks
    from repro.core.report import render_table
    from repro.doc.corpus import documented_rules

    pipeline = _pipeline(params)
    results = check_rules(_table_for(pipeline, params), documented_rules())
    rows = [
        [s.data_type, s.rules, s.unobserved, s.observed, s.correct,
         s.ambivalent, s.incorrect]
        for s in summarize_checks(results)
    ]
    text = render_table(
        ["type", "#R", "#No", "#Ob", "correct", "ambivalent", "incorrect"],
        rows, title="documented-rule check (Tab. 4)",
    )
    return {"text": text, "exit_code": 0, "types": len(rows)}


def _run_violations(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.report import render_table
    from repro.core.violations import (
        ViolationFinder,
        summarize as summarize_violations,
    )

    pipeline = _pipeline(params)
    derivation = pipeline.derive(backend=params["backend"])
    violations = ViolationFinder(derivation, _table_for(pipeline, params)).find()
    rows = [
        [s.type_key, s.events, s.members, s.contexts]
        for s in summarize_violations(violations)
    ]
    parts = [render_table(
        ["type", "events", "members", "contexts"], rows,
        title="locking-rule violations (Tab. 7)",
    )]
    for violation in violations[: params["examples"]]:
        parts.append(violation.format())
    return {
        "text": "\n".join(parts),
        "exit_code": 0,
        "violations": len(violations),
    }


#: Workloads whose ``races`` runs the simulation live instead of
#: reading the pipeline's cached artifacts.
_LIVE_RACES = ("racer", "racer-safe")


def _run_races(params: Dict[str, Any]) -> Dict[str, Any]:
    backend = params["backend"]
    if params["workload"] not in _LIVE_RACES:
        pipeline = _pipeline(params)
        candidates = pipeline.race_candidates(backend)
        report = candidates.classify(
            pipeline.derive(params["threshold"], backend=backend)
        )
    else:
        from repro.analysis import detect_races
        from repro.workloads.racer import run_racer

        result = run_racer(
            seed=params["seed"],
            scale=params["scale"],
            racy=params["workload"] == "racer",
        )
        db = (
            _racer_store_database(result)
            if backend == "sqlite"
            else result.to_database()
        )
        derivation = result.derive(params["threshold"])
        report = detect_races(result.tracer.events, db, derivation)
    return {"text": report.render(examples=params["examples"]), "exit_code": 0}


def _racer_store_database(result):
    """Round-trip a racer run through a (temporary) SQLite store.

    Racer runs are tiny and never disk-cached as stores; building the
    store in a temp dir keeps the backend semantics — spool import, SQL
    schema, validated reload — without a cache tier for throwaways.
    """
    import tempfile

    from repro.db import sqlstore
    from repro.workloads.registry import database_inputs

    structs, filters = database_inputs("racer")
    tracer = result.tracer
    stacks = [tracer.stack(i) for i in range(tracer.stack_count)]
    with tempfile.TemporaryDirectory(prefix="lockdoc-racer-store-") as tmp:
        path = os.path.join(tmp, "racer.store.sqlite")
        sqlstore.build_store(
            path, tracer.events, stacks, structs, filters,
            meta_extra={"recipe": "racer"},
        )
        store = sqlstore.SqliteTraceStore(path)
        try:
            return store.load_database(structs)
        finally:
            store.close()


def _run_stats(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.stats import collect

    result = collect(_pipeline(params), params["backend"])
    return {"text": result.render(), "exit_code": 0}


def _run_health(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.db.health import ingest_path, render_diagnostics
    from repro.db.importer import ImportPolicy
    from repro.workloads.registry import database_inputs

    trace = params["trace"]
    if os.path.getsize(trace) == 0:
        raise ValueError(f"empty trace file {trace!r}")
    structs, filters = database_inputs(params["registry"])
    policy = ImportPolicy(lenient=True, max_malformed_fraction=params["budget"])
    if params["backend"] == "sqlite":
        import tempfile

        from repro.db import sqlstore

        with tempfile.TemporaryDirectory(prefix="lockdoc-health-store-") as tmp:
            health, report = sqlstore.ingest_path_spooled(
                trace, os.path.join(tmp, "health.store.sqlite"),
                structs, filters, policy,
            )
    else:
        _db, health, report = ingest_path(trace, structs, filters, policy)
    parts = []
    if report.diagnostics:
        parts.append(
            render_diagnostics(report.diagnostics, limit=params["diagnostics"])
        )
    parts.append(health.render())
    return {
        "text": "\n".join(parts),
        "exit_code": 1 if health.budget_exceeded else 0,
    }


_RUNNERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "derive": _run_derive,
    "check": _run_check,
    "violations": _run_violations,
    "races": _run_races,
    "stats": _run_stats,
    "health": _run_health,
}


def execute(op: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one validated operation; returns the JSON-able result.

    In a reused daemon worker, a request it already answered for a
    resident key gets a copy of the kept reply (:func:`keep_warm`)
    instead of a fresh render; elsewhere nothing is ever kept.
    """
    canonical = validate(op, params)
    if _resident_reads(op, canonical):
        kept = experiments_common.resident_reply(
            canonical["workload"], canonical["seed"], canonical["scale"],
            op, canonical,
        )
        if kept is not None:
            return dict(kept)
    return _RUNNERS[op](canonical)


# ---------------------------------------------------------------------
# The daemon parent's warm state (inherited by every forked worker)
# and what a reused worker keeps between requests
# ---------------------------------------------------------------------

#: Every module the runners import lazily: in their bodies, through the
#: pipeline (``race_candidates``, the sqlite store), through the
#: classes their artifacts unpickle, and through the recipe builders
#: of :data:`RECIPES` (``health``).  ``import repro.serve.ops`` stays
#: lean (``tests/test_import_footprint.py``); :func:`warm` imports them.
_WARM_MODULES = (
    "repro.analysis.racedetect",
    "repro.core.checker",
    "repro.core.report",
    "repro.core.rulesio",
    "repro.core.violations",
    "repro.db.health",
    "repro.db.importer",
    "repro.db.sqlstore",
    "repro.doc.corpus",
    "repro.experiments.stats",
    "repro.workloads.racer",
)


def warm() -> None:
    """Import every module a runner needs, build the documented-rule
    corpus and compute both cache revisions, once, in the daemon
    parent: workers forked afterwards inherit all of it instead of
    paying for it per request, and the revision names the code they
    actually run."""
    for name in _WARM_MODULES:
        importlib.import_module(name)
    for builders in RECIPES.values():
        for ref in builders:
            if ref is not None:
                importlib.import_module(ref.split(":", 1)[0])
    importlib.import_module("repro.doc.corpus").documented_rules()
    cache.kernel_revision()
    cache.analysis_revision()


#: The cache artifacts each memory-backend pipeline runner reads once
#: its key is warm.
_READS: Dict[str, Callable[[Dict[str, Any]], Tuple[str, ...]]] = {
    "derive": lambda p: (
        experiments_common.derivation_artifact(p["threshold"]),
    ),
    "check": lambda p: ("table-split",),
    "violations": lambda p: (
        "table-split",
        experiments_common.derivation_artifact(DEFAULT_ACCEPT_THRESHOLD),
    ),
    "races": lambda p: (
        ()
        if p["workload"] in _LIVE_RACES
        else (
            experiments_common.race_candidates_artifact(),
            experiments_common.derivation_artifact(p["threshold"]),
        )
    ),
    "stats": lambda p: ("db-stats",),
}


def _resident_reads(op: str, params: Dict[str, Any]) -> Tuple[str, ...]:
    """The artifacts *op* reads once its key is resident; empty when the
    request reads more than artifacts (``health``, the sqlite backend,
    live ``racer`` races), so it is never kept."""
    reads = _READS.get(op)
    if reads is None or params["backend"] != "memory":
        return ()
    return reads(params)


class Kept(NamedTuple):
    """What a reused worker keeps after one reply (:func:`keep_warm`)."""

    #: The artifact names newly resident.
    artifacts: Tuple[str, ...]
    #: The reply was the key's kept one, not a fresh render.
    memo: bool


def keep_warm(
    op: str, params: Dict[str, Any], result: Dict[str, Any]
) -> Optional[Kept]:
    """In a reused daemon worker, after *op* answered ``ok`` with
    *result*: None when the request did more than read cached artifacts
    (the worker then exits); otherwise keep the key's pipeline with only
    the artifacts ``_READS`` names, within the resident bound
    (:func:`repro.experiments.common.keep_resident`), and *result* as
    the key's reply to *op* (:func:`repro.experiments.common.keep_reply`).
    """
    artifacts = _resident_reads(op, params)
    if not artifacts:
        return None
    key = (params["workload"], params["seed"], params["scale"])
    # Nothing ran between execute's lookup and this one, so a reply
    # kept for these params is the one execute handed out.
    memo = experiments_common.resident_reply(*key, op, params) is not None
    kept = experiments_common.keep_resident(*key, artifacts)
    if kept is None:
        return None
    if not memo:
        experiments_common.keep_reply(*key, op, params, result)
    return Kept(tuple(kept), memo)
