"""A corpus carries its subsystem, and loading rejects what no
subsystem can run."""

import json

import pytest

from repro import cli
from repro.fuzz.corpus import SCHEMA, Corpus
from repro.fuzz.feedback import CoverageMap
from repro.fuzz.program import SyscallProgram
from repro.workloads import registry

#: A program naming an unregistered subsystem (ops of both slices).
SCSI_PROGRAM = {
    "subsystem": "scsi",
    "threads": [[["create", 1]], [["sock_send", 2]]],
}
#: A vfs program (untagged) holding a net op.
MIXED_VOCABULARY = {"threads": [[["create", 1]], [["sock_send", 2]]]}


def _corpus_file(tmp_path, program, **top):
    empty = {"pairs": [], "functions": []}
    data = {
        "schema": SCHEMA,
        "seed": 0,
        "baseline": empty,
        "entries": [{
            "entry_id": 0,
            "program": program,
            "coverage": empty,
            "novel": empty,
            "generation": 0,
            "energy": 1.0,
        }],
        "records": [],
        **top,
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(data))
    return str(path)


# ----------------------------------------------------------------------
# The corpus's own subsystem
# ----------------------------------------------------------------------

def test_empty_net_campaign_reports_against_netbench(tmp_path, capsys):
    path = str(tmp_path / "net.json")
    assert cli.main([
        "fuzz", "run", "--subsystem", "net", "--generations", "0",
        "--baseline-scale", "0.5", "--out", path,
    ]) == 0
    assert "over the netbench baseline" in capsys.readouterr().out
    corpus = Corpus.load(path)
    assert corpus.subsystem == "net" and not corpus.entries
    assert registry.db_recipe(f"fuzz:{corpus.corpus_id}") == "net"
    assert cli.main(["fuzz", "report", path, "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    pairs = corpus.baseline.pair_count
    assert f"feedback pairs           {pairs} -> {pairs}" in out
    coverage = out.split("Tab. 3-style coverage", 1)[1].splitlines()[3:]
    assert [line.split()[0] for line in coverage] == ["net", "net/core", "net/ipv4"]


def test_empty_campaigns_of_two_subsystems_have_distinct_ids():
    baseline = CoverageMap()
    vfs, net = Corpus(baseline, seed=5), Corpus(baseline, seed=5, subsystem="net")
    assert vfs.corpus_id != net.corpus_id
    assert registry.register_corpus(vfs) != registry.register_corpus(net)
    assert registry.db_recipe(f"fuzz:{net.corpus_id}") == "net"
    assert registry.db_recipe(f"fuzz:{vfs.corpus_id}") == "vfs"


def test_registrations_do_not_outlive_their_test():
    # The test above registered both ids; the autouse fixture of
    # tests/conftest.py removed them again.
    names = {
        f"fuzz:{Corpus(CoverageMap(), seed=5, subsystem=name).corpus_id}"
        for name in ("vfs", "net")
    }
    assert not names & set(registry.available())


def test_vfs_corpus_ids_are_unchanged():
    # A vfs id digests the seed and the programs alone.
    assert Corpus(CoverageMap(), seed=0).corpus_id == "5feceb66ffc8"


def test_subsystem_key_is_written_only_off_the_default():
    baseline = CoverageMap()
    assert "subsystem" not in Corpus(baseline).to_dict()
    assert Corpus(baseline, subsystem="net").to_dict()["subsystem"] == "net"


def test_entries_must_agree_with_the_corpus(tmp_path):
    path = _corpus_file(tmp_path, {"threads": [[["create", 1]]]}, subsystem="net")
    with pytest.raises(ValueError, match="holds programs of vfs"):
        Corpus.load(path)


def test_untagged_files_take_the_subsystem_of_their_programs(tmp_path):
    path = _corpus_file(
        tmp_path, {"subsystem": "net", "threads": [[["sock_create"]]]}
    )
    assert Corpus.load(path).subsystem == "net"


# ----------------------------------------------------------------------
# Validation at load
# ----------------------------------------------------------------------

def test_unknown_subsystem_is_rejected():
    with pytest.raises(ValueError, match="unknown subsystem 'scsi'"):
        SyscallProgram.from_dict(SCSI_PROGRAM)


def test_op_outside_the_vocabulary_is_rejected():
    with pytest.raises(ValueError, match="'sock_send' is not in the vfs"):
        SyscallProgram.from_dict(MIXED_VOCABULARY)


@pytest.mark.parametrize("action", ("replay", "report"))
@pytest.mark.parametrize(
    "program", (SCSI_PROGRAM, MIXED_VOCABULARY), ids=("scsi", "vocabulary")
)
def test_fuzz_commands_exit_2_on_a_bad_program(tmp_path, capsys, action, program):
    path = _corpus_file(tmp_path, program)
    assert cli.main(["fuzz", action, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
