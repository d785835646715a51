"""Extension — object-interrelation analysis (Sec. 8 future work).

Classifies the object relationship behind every mined EO rule:
owner (per-object protector), container (one protector for many
objects — the paper's "lock in the list head" example), or varying
(no stable relation; e.g. foreign-lock neighbour writes).
"""

from benchmarks.conftest import emit
from repro.core.relations import RelationKind, analyze_relations


def test_ext_relations(benchmark, pipeline):
    derivation = pipeline.derive()
    report = benchmark(analyze_relations, derivation, pipeline.db)
    emit("Extension — EO-rule object relations", report.render())

    # The ground truth's known relationships classify correctly:
    # one journal protects all journal_head list members (container),
    jh = report.get("journal_head", "b_transaction", "w")
    assert jh is not None and jh.kind == RelationKind.CONTAINER
    # transaction state under the (single) journal's state lock,
    t_state = report.get("transaction_t", "t_state", "w")
    assert t_state is not None and t_state.kind == RelationKind.CONTAINER
    # and stable relations dominate the trace overall.
    stable = len(report.by_kind(RelationKind.OWNER)) + len(
        report.by_kind(RelationKind.CONTAINER)
    )
    assert stable >= len(report.by_kind(RelationKind.VARYING))
    assert report.relations  # EO rules exist to classify
