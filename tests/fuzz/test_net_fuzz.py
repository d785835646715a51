"""Fuzzing over the net syscall vocabulary (subsystem="net")."""

import pytest

from repro.fuzz.corpus import Corpus
from repro.fuzz.feedback import execute_program
from repro.fuzz.mutate import random_program
from repro.fuzz.orchestrator import (
    FuzzConfig,
    FuzzOrchestrator,
    baseline_coverage,
    replay_corpus,
)
from repro.fuzz.program import (
    NET_OP_KINDS,
    OP_KINDS,
    SyscallOp,
    SyscallProgram,
)
from repro.workloads import subsystems
import random


# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------

def test_subsystem_descriptor_selects_the_vocabulary():
    assert subsystems.get("vfs").op_kinds is OP_KINDS
    assert subsystems.get("net").op_kinds is NET_OP_KINDS
    with pytest.raises(ValueError):
        subsystems.get("scsi")


def test_vocabularies_do_not_overlap():
    assert not set(OP_KINDS) & set(NET_OP_KINDS)


def test_random_net_program_uses_net_ops():
    rng = random.Random(0)
    program = random_program(rng, subsystem="net")
    assert program.subsystem == "net"
    kinds = {op.kind for thread in program.threads for op in thread}
    assert kinds <= set(NET_OP_KINDS)


# ----------------------------------------------------------------------
# Execution and serialization
# ----------------------------------------------------------------------

def _net_program(seed=0):
    rng = random.Random(seed)
    return random_program(rng, subsystem="net")


def test_net_program_executes_and_covers_net_pairs():
    execution = execute_program(_net_program())
    assert execution.coverage.pairs
    types = {pair[0] for pair in execution.coverage.pairs}
    assert types <= {"sock", "sk_buff", "socket_wq", "net_device"}


def test_net_execution_is_deterministic():
    program = _net_program()
    first = execute_program(program)
    second = execute_program(program)
    assert first.coverage == second.coverage


def test_subsystem_serialization_round_trip():
    program = _net_program()
    restored = SyscallProgram.from_dict(program.to_dict())
    assert restored.subsystem == "net"
    assert restored.key() == program.key()


def test_vfs_corpus_json_stays_byte_compatible():
    """vfs programs serialize exactly as before the net vocabulary:
    no ``subsystem`` key, and deserialization defaults to vfs."""
    program = SyscallProgram(
        threads=[[SyscallOp("create", (0,)), SyscallOp("rename")]],
        sched_seed=7,
    )
    payload = program.to_dict()
    assert "subsystem" not in payload
    assert SyscallProgram.from_dict(payload).subsystem == "vfs"


def test_net_key_differs_from_vfs_key():
    net = _net_program()
    vfs_twin = SyscallProgram(
        threads=net.threads, sched_seed=net.sched_seed, subsystem="vfs"
    )
    assert net.key() != vfs_twin.key()


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def net_campaign():
    baseline = baseline_coverage(0, 1.0, subsystem="net")
    config = FuzzConfig(
        seed=0, generations=2, population=6,
        baseline_scale=1.0, subsystem="net",
    )
    outcome = FuzzOrchestrator(config).run(baseline=baseline)
    return {"baseline": baseline, "outcome": outcome}


def test_net_campaign_grows_coverage_over_netbench(net_campaign):
    outcome = net_campaign["outcome"]
    assert outcome.corpus.entries
    # the handwritten nested-lockset paths are only reachable by the
    # fuzzer, so the campaign must clear the bench gate's 10% floor
    assert outcome.pair_growth >= 0.10


def test_net_campaign_replays_bit_identically(net_campaign):
    replay = replay_corpus(net_campaign["outcome"].corpus)
    assert replay.identical, replay.mismatches


def test_net_corpus_round_trip(net_campaign, tmp_path):
    corpus = net_campaign["outcome"].corpus
    assert corpus.subsystem == "net"
    path = str(tmp_path / "net-corpus.json")
    corpus.save(path)
    restored = Corpus.load(path)
    assert restored.subsystem == "net"
    assert [e.program.key() for e in restored.entries] == [
        e.program.key() for e in corpus.entries
    ]


def test_net_corpus_runs_as_a_registry_workload(net_campaign, tmp_path):
    from repro.workloads import registry

    corpus = net_campaign["outcome"].corpus
    path = str(tmp_path / "net-corpus.json")
    corpus.save(path)
    name = f"fuzz:{path}"
    assert registry.db_recipe(name) == "net"
    assert registry.subsystem_of(name) == "net"
    result = registry.run(name, seed=0, scale=1.0)
    types = {row.type_key for row in result.to_database().kept_accesses()}
    assert types <= {"sock", "sk_buff", "socket_wq", "net_device"}
