"""Extension — the SQL backend (the paper's MariaDB pipeline).

Exports the Fig. 6 schema to SQLite and runs the paper's
"parametrizable SQL statement" violation query, cross-validating it
against the Python-side rule-violation finder.
"""

from benchmarks.conftest import emit
from repro.core.report import render_table
from repro.core.violations import ViolationFinder
from repro.db.sqlbackend import export_sqlite, find_violations_sql, table_counts


def test_ext_sql_backend(benchmark, pipeline):
    connection = benchmark(export_sqlite, pipeline.db)
    counts = table_counts(connection)
    emit(
        "Extension — SQLite export (Fig. 6 schema)",
        render_table(["table", "rows"], sorted(counts.items())),
    )
    assert counts["accesses"] == len(pipeline.db.accesses)
    assert counts["txns"] == len(pipeline.db.txns)
    assert counts["subclasses"] >= 11

    # Cross-validate the SQL violation query against the Python finder
    # for the buffer_head b_state write rule.
    derivation = pipeline.derive()
    target = derivation.get("buffer_head", "b_state", "w")
    sql_hits = find_violations_sql(
        connection, "buffer_head", "b_state", "w", target.rule.locks
    )
    # The Python finder reports all rows of a violating folded
    # observation — including reads a write-over-read group absorbed
    # (Tab. 1 semantics); the SQL pass counts raw write rows only.  The
    # write rows must agree exactly.
    from repro.core.observations import fold_accesses
    from repro.core.rules import complies

    violating_obs = [
        rows
        for key, lockseq, rows in fold_accesses(pipeline.db.kept_accesses())
        if key == ("buffer_head", "b_state", "w")
        and not complies(lockseq, target.rule)
    ]
    python_write_rows = sum(
        1 for rows in violating_obs for access in rows if access.access_type == "w"
    )
    python_all_rows = sum(len(rows) for rows in violating_obs)
    assert python_write_rows > 0
    assert len(sql_hits) == python_write_rows
    # sanity: the Python finder's event count covers at least those rows
    finder_events = sum(
        v.events
        for v in ViolationFinder(derivation, pipeline.table).find()
        if v.type_key == "buffer_head" and v.member == "b_state"
        and v.access_type == "w"
    )
    assert finder_events == python_all_rows
