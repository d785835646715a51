"""Run a workload with the streaming engine attached as event sink.

:func:`run_streamed` resolves a workload through the central registry,
installs a :class:`~repro.stream.engine.StreamEngine` as the tracer's
event sink for the duration of the run, and finalizes the engine —
after which the fold, the contention statistics, and (in races mode)
the lockset/happens-before state are ready without the trace ever
having been materialized as an event list or imported into a database.

:func:`run_derive_streamed` / :func:`run_races_streamed` mirror the
``derive`` / ``races`` runners of :mod:`repro.serve.ops` over the
streamed state: same canonical params, same rendered text on clean
traces — only the trips through serialize/import are gone.  The
streamed path deliberately bypasses the on-disk trace cache: the sink
must see live events, and skipping the replay is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.derivator import DerivationResult, Derivator
from repro.experiments import common as experiments_common
from repro.stream.engine import StreamEngine
from repro.stream.intervals import IntervalReport
from repro.tracing.tracer import install_sink_factory
from repro.workloads import registry


@dataclass
class StreamRun:
    """One workload run folded online by the streaming engine."""

    workload: str
    seed: int
    scale: float
    engine: StreamEngine
    #: The workload's run result (kept for world/scheduler inspection;
    #: its ``tracer.events`` is the engine, not a list).
    result: object

    def derive(
        self, accept_threshold: float = 0.9, jobs: Optional[int] = None
    ) -> DerivationResult:
        # ``jobs`` is ignored, kept only because benchmarks/e2e/paths.py passes it.
        return Derivator(accept_threshold).derive(self.engine.table)


def run_streamed(
    workload: str,
    seed: int = 0,
    scale: float = experiments_common.DEFAULT_SCALE,
    *,
    races: bool = False,
    interval: Optional[int] = None,
    interval_callback: Optional[Callable[[IntervalReport], None]] = None,
    top: int = 5,
) -> StreamRun:
    """Run *workload* once with a streaming engine subscribed to it.

    The engine is configured with the workload's registered database
    recipe (struct registry + filter config), so its online fold sees
    exactly the inputs a post-mortem import of the same trace would.
    """
    factory = registry.resolve(workload)
    structs, filters = registry.database_inputs(registry.db_recipe(workload))
    engine = StreamEngine(
        structs,
        filters,
        races=races,
        interval=interval,
        interval_callback=interval_callback,
        top=top,
    )
    previous = install_sink_factory(engine.sink_factory)
    try:
        result = factory(seed, scale)
    finally:
        install_sink_factory(previous)
    if engine.tracer is None:
        raise ValueError(
            f"workload {workload!r} constructed no tracer while the "
            f"streaming sink was installed"
        )
    engine.finalize()
    return StreamRun(
        workload=workload, seed=seed, scale=scale, engine=engine, result=result
    )


# ----------------------------------------------------------------------
# Streamed twins of the serve.ops derive/races runners
# ----------------------------------------------------------------------


def run_derive_streamed(params: Dict[str, Any]) -> Dict[str, Any]:
    """Streamed ``derive``: same params/text contract as
    :func:`repro.serve.ops._run_derive` (memory backend)."""
    from repro.core.report import render_table

    run = run_streamed(params["workload"], params["seed"], params["scale"])
    derivation = run.derive(params["threshold"])
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
    if params.get("want_rules_json"):
        from repro.core.rulesio import rules_to_json

        result["rules_json"] = rules_to_json(derivation)
    return result


def run_races_streamed(params: Dict[str, Any]) -> Dict[str, Any]:
    """Streamed ``races``: same params/text contract as
    :func:`repro.serve.ops._run_races` (memory backend)."""
    run = run_streamed(
        params["workload"], params["seed"], params["scale"], races=True
    )
    derivation = run.derive(params["threshold"])
    report = run.engine.race_report(derivation)
    return {
        "text": report.render(examples=params["examples"]),
        "exit_code": 0,
    }
