"""Registry integration of the net workloads (netbench/sockstress/netmix)."""

import re

import pytest

from repro import cli
from repro.workloads import registry


# ----------------------------------------------------------------------
# Resolution and tagging
# ----------------------------------------------------------------------

def test_net_workloads_are_registered():
    names = registry.available()
    assert {"netbench", "sockstress", "netmix"} <= set(names)


def test_net_workloads_use_the_net_recipe():
    for name in ("netbench", "sockstress", "netmix"):
        assert registry.db_recipe(name) == "net"


def test_subsystem_tags():
    assert registry.subsystem_of("netbench") == "net"
    assert registry.subsystem_of("sockstress") == "net"
    assert registry.subsystem_of("netmix") == "mixed"
    assert registry.subsystem_of("mix") == "vfs"


def test_net_recipe_inputs_cover_both_slices():
    structs, filters = registry.database_inputs("net")
    names = {struct.name for struct in structs.all()}
    assert "inode" in names and "sock" in names
    assert filters is not None
    # the union filter blacklists both subsystems' excluded members
    assert ("sock", "sk_backlog") in filters.member_blacklist
    assert any(t == "inode" for t, _ in filters.member_blacklist)


def test_run_netbench_through_the_registry():
    result = registry.run("netbench", seed=0, scale=1.0)
    assert result.tracer.events
    db = result.to_database()
    assert any(
        row.type_key == "sock" for row in db.kept_accesses()
    )


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------

def test_unknown_workload_error_groups_names_by_subsystem():
    with pytest.raises(ValueError) as excinfo:
        registry.resolve("nope")
    message = str(excinfo.value)
    assert "unknown workload 'nope'" in message
    # grouped listing: every subsystem tag names its workloads
    assert "net: netbench, sockstress" in message
    assert "mixed: netmix" in message
    # other tests may register fuzz corpora into the vfs group, so
    # only pin that "mix" is listed under the vfs tag
    match = re.search(r"vfs: ([^;)]*)", message)
    assert match is not None
    assert "mix" in [name.strip() for name in match.group(1).split(",")]


def test_experiment_rejects_net_only_workloads(capsys):
    exit_code = cli.main(
        ["experiment", "tab3", "--workload", "netbench"]
    )
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "tab3net/tab6net" in err


# ----------------------------------------------------------------------
# Second-column experiments
# ----------------------------------------------------------------------

def test_tab3net_reports_partial_net_coverage():
    from repro.experiments.tab3 import run

    result = run(seed=0, scale=2.0, subsystem="net")
    directories = [row.directory for row in result.rows]
    assert directories == ["net", "net/core", "net/ipv4"]
    for row in result.rows:
        assert 0.0 < row.line_coverage < 1.0, row.format()
    best = max(result.rows, key=lambda row: row.line_coverage)
    assert best.directory == "net/core"


def test_tab6net_mines_rules_for_every_net_type():
    from repro.experiments.tab6 import run

    result = run(seed=0, scale=2.0, subsystem="net")
    assert [row.type_key for row in result.rows] == [
        "net_device", "sk_buff", "sock", "socket_wq",
    ]
    for row in result.rows:
        assert row.rules_r + row.rules_w > 0, row.type_key
        assert row.members > row.rules_w
        assert 0.9 < row.mean_s_r <= 1.0
    sock = result.row("sock")
    assert sock.members == 30 and sock.blacklisted == 5
    # stats/scratch members surface as genuine no-lock rules
    assert result.row("net_device").no_lock_r > 0
