"""Subsystem-generalized coverage catalogs.

The CoverageMap/Tab. 3 accounting reads its catalog shape from the
subsystem descriptors (:data:`repro.workloads.subsystems.SUBSYSTEMS`).
These tests freeze the VFS catalog byte-for-byte — registering the net
slice must not move a single vfs number — and pin the net catalog's
own shape.
"""

import hashlib

from repro.workloads.coverage import _cold_entries, _handwritten_entries
from repro.workloads.subsystems import SUBSYSTEMS, get

NET_COLD_FUNCTIONS = get("net").cold_functions

# Frozen before the net slice landed; any drift here means subsystem
# registration perturbed the vfs accounting.
VFS_COLD_COUNT = 528
VFS_COLD_SHA = "9cec39798e0de230d0141e18f4dab7b042fa544072dabcf760eb49480658a980"
VFS_HANDWRITTEN_COUNT = 60
VFS_HANDWRITTEN_SHA = (
    "636f4852f14606682a3c2fc64b5b0b8c944f7fb0dfef38f8354ee64bb79d813e"
)


def _fingerprint(entries):
    payload = repr([(e.name, e.file, e.line, e.span) for e in entries])
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# VFS byte-identity
# ----------------------------------------------------------------------

def test_vfs_cold_catalog_is_byte_identical():
    entries = _cold_entries("vfs")
    assert len(entries) == VFS_COLD_COUNT
    assert _fingerprint(entries) == VFS_COLD_SHA


def test_vfs_handwritten_catalog_is_byte_identical():
    entries = _handwritten_entries("vfs")
    assert len(entries) == VFS_HANDWRITTEN_COUNT
    assert _fingerprint(entries) == VFS_HANDWRITTEN_SHA


def test_cold_seeds_are_independent():
    """Each subsystem draws its cold spans from its own seeded rng."""
    seeds = {s.cold_seed for s in SUBSYSTEMS.values()}
    assert len(seeds) == len(SUBSYSTEMS)


# ----------------------------------------------------------------------
# Net catalog shape
# ----------------------------------------------------------------------

def test_net_directories():
    assert get("net").directories == ("net", "net/core", "net/ipv4")


def test_net_cold_catalog_matches_the_registration():
    entries = _cold_entries("net")
    assert len(entries) == sum(NET_COLD_FUNCTIONS.values()) == 310
    by_dir = {}
    for entry in entries:
        by_dir.setdefault(entry.directory, 0)
        by_dir[entry.directory] += 1
    for directory, count in NET_COLD_FUNCTIONS.items():
        assert by_dir[directory] == count


def test_net_cold_catalog_is_deterministic():
    assert _fingerprint(_cold_entries("net")) == _fingerprint(
        _cold_entries("net")
    )


def test_net_handwritten_catalog_covers_the_socket_paths():
    entries = _handwritten_entries("net")
    assert len(entries) == 27
    names = {entry.name for entry in entries}
    assert {"sock_sendmsg", "sock_recvmsg", "tcp_retransmit_skb"} <= names
    files = {entry.file for entry in entries}
    assert all(f.startswith("net/") for f in files), files
