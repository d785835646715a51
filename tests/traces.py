"""Imported traces for the equivalence and memory tests.

One helper runs a registered workload, optionally damages its event
stream with a seeded fault plan, and imports it (leniently when
damaged), so tests that compare two paths over one trace build it the
same way.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import repro.kernel  # noqa: F401  (kernel-first import convention)
from repro.db.database import TraceDatabase
from repro.db.importer import LENIENT_POLICY, Importer
from repro.faults import FaultPlan
from repro.tracing.serialize import stacks_of
from repro.workloads import registry

#: The damage of the lenient-import tests: dropped events and releases.
DAMAGE = "drop:0.02,drop-releases:0.05"


class Trace(NamedTuple):
    events: List
    stacks: List
    structs: object
    filters: object
    policy: object
    db: TraceDatabase


def imported_trace(
    workload: str,
    scale: float,
    damage_seed: Optional[int] = None,
    damage: str = DAMAGE,
) -> Trace:
    """Run *workload* at seed 0 and import its events, damaged by
    *damage* under *damage_seed* unless that is None."""
    tracer = registry.resolve(workload)(0, scale).tracer
    structs, filters = registry.database_inputs(registry.db_recipe(workload))
    events, stacks = list(tracer.events), stacks_of(tracer)
    policy = None
    if damage_seed is not None:
        events = FaultPlan.from_spec(damage, seed=damage_seed).apply_events(events)
        policy = LENIENT_POLICY
    db = Importer(structs, filters, policy).run(events, stacks)
    return Trace(events, stacks, structs, filters, policy, db)
