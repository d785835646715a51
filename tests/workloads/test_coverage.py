"""Tests for the coverage accounting (Tab. 3 substrate)."""

from repro.workloads import subsystems
from repro.workloads.coverage import (
    CatalogEntry,
    CoverageRow,
    build_catalog,
    coverage_report,
    executed_functions,
)


def test_catalog_entry_directory():
    assert CatalogEntry("f", "fs/inode.c", 1, 10).directory == "fs"
    assert CatalogEntry("f", "fs/ext4/inode.c", 1, 10).directory == "fs/ext4"
    assert CatalogEntry("f", "toplevel.c", 1, 10).directory == "."


def test_coverage_row_math():
    row = CoverageRow("fs", lines_hit=30, lines_total=100, functions_hit=3,
                      functions_total=10)
    assert row.line_coverage == 0.30
    assert row.function_coverage == 0.30
    assert "30.00%" in row.format()


def test_catalog_contains_hand_and_cold_functions(pipeline):
    catalog = build_catalog(pipeline.mix.world)
    names = {e.name for e in catalog}
    assert "__remove_inode_hash" in names  # hand-written
    assert "jbd2_journal_commit_transaction" in names
    assert any(n.startswith("fs_cold_") for n in names)  # cold paths
    assert any(n.endswith("_fastpath") for n in names)  # deviant twins


def test_executed_functions_from_stacks(pipeline):
    executed = executed_functions(pipeline.db)
    assert ("vfs_write", "fs/read_write.c") in executed


def test_cold_functions_never_executed(pipeline):
    executed = executed_functions(pipeline.db)
    assert not any(name.endswith("_cold_0001") for name, _ in executed)


def test_report_rows_in_partial_band(pipeline):
    rows = coverage_report(pipeline.mix.world, pipeline.db)
    assert [r.directory for r in rows] == ["fs", "fs/ext4", "fs/jbd2"]
    for row in rows:
        assert 0.0 < row.line_coverage < 1.0, row.format()
        assert 0.0 < row.function_coverage < 1.0, row.format()


# ----------------------------------------------------------------------
# Unit tests over synthetic inputs (no pipeline needed)
# ----------------------------------------------------------------------

def test_rt_function_regex_extracts_literal_and_constant_files():
    from repro.workloads.coverage import _RT_FUNCTION

    source = '''
        self.rt.function(ctx, "vfs_demo", "fs/demo.c", 123)
        rt.function(ctx, "jbd2_demo", FILE, 45)
    '''
    found = _RT_FUNCTION.findall(source)
    assert ("vfs_demo", '"fs/demo.c"', "123") in found
    assert ("jbd2_demo", "FILE", "45") in found


def test_rt_function_regex_ignores_dynamic_names():
    from repro.workloads.coverage import _RT_FUNCTION

    # f-string / variable function names cannot be cataloged statically
    # and must not produce bogus entries.
    assert _RT_FUNCTION.findall('rt.function(ctx, name, FILE, 1)') == []


def test_handwritten_entries_unique_and_resolved():
    from repro.workloads.coverage import _handwritten_entries

    entries = _handwritten_entries()
    keys = [(e.name, e.file) for e in entries]
    assert len(keys) == len(set(keys))  # de-duplicated
    assert all(e.file.endswith((".c", ".h")) for e in entries)
    assert all(e.line > 0 and e.span > 0 for e in entries)


def test_cold_entries_are_deterministic_and_counted():
    from repro.workloads.coverage import _cold_entries

    first = _cold_entries()
    assert first == _cold_entries()  # fixed catalog, not run-dependent
    by_dir = {}
    for entry in first:
        by_dir[entry.directory] = by_dir.get(entry.directory, 0) + 1
    assert by_dir == subsystems.get("vfs").cold_functions


def test_coverage_report_per_directory_accounting():
    from repro.workloads.coverage import coverage_report

    class _World:
        class engine:
            ops_by_type = {}

    catalog = [
        CatalogEntry("hot", "fs/a.c", 1, span=10),
        CatalogEntry("cold", "fs/b.c", 1, span=30),
        CatalogEntry("sub", "fs/ext4/c.c", 1, span=20),
    ]

    class _Db:
        stack_table = [[("hot", "fs/a.c", 1), ("sub", "fs/ext4/c.c", 1)]]

    import repro.workloads.coverage as cov

    original = cov.build_catalog
    cov.build_catalog = lambda world, subsystem="vfs": catalog
    try:
        rows = coverage_report(_World(), _Db(), directories=("fs", "fs/ext4"))
    finally:
        cov.build_catalog = original

    fs_row, ext4_row = rows
    # fs counts only files directly under fs/ — the ext4 entry is not
    # part of the fs row.
    assert (fs_row.functions_hit, fs_row.functions_total) == (1, 2)
    assert (fs_row.lines_hit, fs_row.lines_total) == (10, 40)
    assert fs_row.line_coverage == 0.25
    assert (ext4_row.functions_hit, ext4_row.functions_total) == (1, 1)
    assert ext4_row.function_coverage == 1.0
