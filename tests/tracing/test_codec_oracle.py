"""The windowed binary decoder against the format's reference reader.

The decoder parses records straight out of a fixed-size byte window and
re-reads a record field by field only when it tears or straddles the
window's end.  The reference below is the original per-field reader of
the LDOC1 format — one ``read`` + ``struct.unpack`` per field — kept
here as the oracle.  For every input both must agree on the strict,
streaming and lenient outcomes: the same events, the same
``TraceFormatError`` text, the same ``Diagnostic`` location and reason.

The window is shrunk in most tests so that window refills, straddling
records and records longer than the window occur on a small trace.
"""

from __future__ import annotations

import io
import random
import struct

import pytest

from repro.tracing import serialize
from repro.tracing.events import AccessEvent, AllocEvent, FreeEvent, LockEvent
from repro.workloads import registry

# ----------------------------------------------------------------------
# Reference reader
# ----------------------------------------------------------------------

_MAGIC = b"LDOC1\n"


class _ShortRead(Exception):
    pass


_ERRORS = (_ShortRead, struct.error, UnicodeDecodeError, ValueError)


def _read_exact(fp, count):
    data = fp.read(count)
    if len(data) != count:
        raise _ShortRead(f"wanted {count} bytes, got {len(data)}")
    return data


def _read_str(fp):
    (length,) = struct.unpack("<H", _read_exact(fp, 2))
    return _read_exact(fp, length).decode("utf-8")


def _read_stack_table(fp):
    stacks = []
    (stack_count,) = struct.unpack("<I", _read_exact(fp, 4))
    for _ in range(stack_count):
        (frame_count,) = struct.unpack("<H", _read_exact(fp, 2))
        frames = []
        for _ in range(frame_count):
            fn = _read_str(fp)
            file = _read_str(fp)
            (line,) = struct.unpack("<I", _read_exact(fp, 4))
            frames.append((fn, file, line))
        stacks.append(tuple(frames))
    (event_count,) = struct.unpack("<Q", _read_exact(fp, 8))
    return stacks, event_count


def _read_record(fp):
    tag, ts, ctx_id = struct.unpack("<BQI", _read_exact(fp, 13))
    if tag == 0:
        alloc_id, address, size = struct.unpack("<QQI", _read_exact(fp, 20))
        data_type = _read_str(fp)
        subclass = _read_str(fp)
        return AllocEvent(
            ts, ctx_id, alloc_id, address, size, data_type,
            None if subclass == "-" else subclass,
        )
    if tag == 1:
        alloc_id, address = struct.unpack("<QQ", _read_exact(fp, 16))
        return FreeEvent(ts, ctx_id, alloc_id, address)
    if tag in (2, 3):
        address, size, stack_id = struct.unpack("<QIQ", _read_exact(fp, 20))
        file = _read_str(fp)
        (line,) = struct.unpack("<I", _read_exact(fp, 4))
        return AccessEvent(
            ts, ctx_id, address, size, tag == 3, stack_id, file, line
        )
    if tag in (4, 5):
        lock_id, has_address, address = struct.unpack(
            "<QBQ", _read_exact(fp, 17)
        )
        lock_class = _read_str(fp)
        lock_name = _read_str(fp)
        mode = _read_str(fp)
        (stack_id,) = struct.unpack("<Q", _read_exact(fp, 8))
        file = _read_str(fp)
        (line,) = struct.unpack("<I", _read_exact(fp, 4))
        return LockEvent(
            ts, ctx_id, lock_id, lock_class, lock_name,
            address if has_address else None, tag == 4, mode, stack_id,
            file, line,
        )
    raise serialize.TraceFormatError(f"unknown binary tag {tag}")


def reference_load(data: bytes, lenient: bool):
    """``(events, stacks, declared, diagnostics)`` or ``("error", text)``."""
    fp = io.BytesIO(data)
    events, stacks, diagnostics = [], [], []
    declared = None

    def outcome():
        return events, stacks, declared, diagnostics

    def problem(offset, reason):
        if not lenient:
            raise serialize.TraceFormatError(f"offset {offset:#x}: {reason}")
        diagnostics.append((f"offset {offset:#x}", reason))

    try:
        magic = fp.read(len(_MAGIC))
        if magic != _MAGIC:
            problem(0, "empty trace file" if magic == b"" else f"bad magic {magic!r}")
            return outcome()
        try:
            table, count = _read_stack_table(fp)
        except _ERRORS as exc:
            problem(fp.tell(), f"corrupt stack table: {exc}")
            return outcome()
        stacks.extend(table)
        declared = count
        for _ in range(count):
            start = fp.tell()
            try:
                events.append(_read_record(fp))
            except serialize.TraceFormatError as exc:
                problem(start, str(exc))
                break
            except _ERRORS as exc:
                problem(
                    start,
                    f"torn record after {len(events)} of {count} events ({exc})",
                )
                break
    except serialize.TraceFormatError as exc:
        return ("error", str(exc))
    return outcome()


def reference_stream(data: bytes):
    """``(stacks, declared, events, error text or None)``."""
    fp = io.BytesIO(data)
    magic = fp.read(len(_MAGIC))
    if magic != _MAGIC:
        reason = "empty trace file" if magic == b"" else f"bad magic {magic!r}"
        return ("open-error", f"offset 0x0: {reason}")
    try:
        stacks, count = _read_stack_table(fp)
    except _ERRORS as exc:
        return ("open-error", f"offset {fp.tell():#x}: corrupt stack table: {exc}")
    events = []
    for _ in range(count):
        start = fp.tell()
        try:
            events.append(_read_record(fp))
        except serialize.TraceFormatError as exc:
            return stacks, count, events, str(exc)
        except _ERRORS as exc:
            return stacks, count, events, f"offset {start:#x}: torn record ({exc})"
    return stacks, count, events, None


# ----------------------------------------------------------------------
# The decoder under test, in the same shapes
# ----------------------------------------------------------------------


def decoder_load(data: bytes, lenient: bool):
    try:
        if lenient:
            report = serialize.loads_binary_lenient(data)
        else:
            events, stacks = serialize.loads_binary(data)
            return events, stacks, len(events), []
    except serialize.TraceFormatError as exc:
        return ("error", str(exc))
    diagnostics = [(d.location, d.reason) for d in report.diagnostics]
    assert all(d.record == "" for d in report.diagnostics)
    return report.events, report.stacks, report.declared_events, diagnostics


def decoder_stream(data: bytes):
    try:
        stream = serialize.open_binary_stream(io.BytesIO(data))
    except serialize.TraceFormatError as exc:
        return ("open-error", str(exc))
    events = []
    try:
        for event in stream.events:
            events.append(event)
    except serialize.TraceFormatError as exc:
        return stream.stacks, stream.declared_events, events, str(exc)
    return stream.stacks, stream.declared_events, events, None


def assert_same_outcomes(data: bytes) -> None:
    lenient = reference_load(data, lenient=True)
    assert decoder_load(data, lenient=True) == lenient
    strict = reference_load(data, lenient=False)
    if strict[0] != "error":
        # The reference's strict success carries the declared count;
        # loads_binary returns only (events, stacks).
        strict = (strict[0], strict[1], len(strict[0]), [])
    assert decoder_load(data, lenient=False) == strict
    assert decoder_stream(data) == reference_stream(data)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _small_mix_trace() -> bytes:
    """The first 8 events of each kind from mix, in trace order, plus
    the head of mix's stack table: every record kind in a few KB."""
    tracer = registry.run("mix", seed=0, scale=1.0).tracer
    taken = {}
    events = []
    for event in tracer.events:
        kind = type(event), getattr(event, "is_write", None)
        if taken.get(kind, 0) < 8:
            taken[kind] = taken.get(kind, 0) + 1
            events.append(event)
    return serialize.dumps_events_binary(events, serialize.stacks_of(tracer)[:6])


_SMALL = _small_mix_trace()


@pytest.fixture
def small_window(monkeypatch):
    """A 61-byte window: most records straddle a refill, and lock
    records are longer than the window."""
    monkeypatch.setattr(serialize, "_WINDOW", 61)


def test_small_trace_has_every_record_kind():
    events, _ = serialize.loads_binary(_SMALL)
    kinds = {(type(e), getattr(e, "is_write", getattr(e, "is_acquire", None))) for e in events}
    assert len(kinds) == 6


@pytest.mark.parametrize("window", ["default", "small"])
def test_every_cut_of_a_small_mix_trace(window, monkeypatch):
    if window == "small":
        monkeypatch.setattr(serialize, "_WINDOW", 61)
    for cut in range(len(_SMALL) + 1):
        assert_same_outcomes(_SMALL[:cut])


@pytest.mark.parametrize("seed", range(4))
def test_seeded_bit_flips(seed, small_window):
    rng = random.Random(seed)
    for _ in range(150):
        mutated = bytearray(_SMALL)
        for _ in range(rng.choice((1, 1, 2, 3))):
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        assert_same_outcomes(bytes(mutated))


def test_bit_flips_in_a_full_mix_trace_at_the_default_window():
    tracer = registry.run("mix", seed=0, scale=1.0).tracer
    data = serialize.dumps_binary(tracer)
    assert len(data) > 3 * serialize._WINDOW
    assert_same_outcomes(data)
    rng = random.Random(7)
    for _ in range(4):
        mutated = bytearray(data)
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        assert_same_outcomes(bytes(mutated))


def _access(ts, file):
    return AccessEvent(ts, 1, 0x1000 + ts, 8, ts % 2 == 0, 0, file, ts)


def test_string_longer_than_the_window_straddling_a_boundary(monkeypatch):
    monkeypatch.setattr(serialize, "_WINDOW", 512)
    long_file = "d/" * 700 + "é.c"  # 1404 UTF-8 bytes, a two-byte char
    events = [_access(ts, "fs/inode.c") for ts in range(1, 9)]
    events.append(_access(9, long_file))
    events += [_access(ts, "fs/inode.c") for ts in range(10, 14)]
    data = serialize.dumps_events_binary(events, [(("f", "a.c", 1),)])
    header = len(_MAGIC) + 4 + 2 + (2 + 1) + (2 + 3) + 4 + 8
    start = header + 8 * (35 + len("fs/inode.c") + 4) + 35
    assert start < 512 < start + len(long_file.encode())
    assert serialize.loads_binary(data) == (events, [(("f", "a.c", 1),)])
    for cut in range(start - 40, start + len(long_file.encode()) + 60):
        assert_same_outcomes(data[:cut])
    for pos in range(start - 2, start + 4):
        mutated = bytearray(data)
        mutated[pos] ^= 0x80
        assert_same_outcomes(bytes(mutated))


def test_record_longer_than_the_default_window():
    longest = "x" * 0xFFFF
    lock = LockEvent(3, 1, 7, longest, longest, None, True, longest, 0, longest, 9)
    events = [_access(1, "a.c"), _access(2, "a.c"), lock, _access(4, "a.c")]
    data = serialize.dumps_events_binary(events, [])
    assert len(data) > serialize._WINDOW
    assert serialize.loads_binary(data) == (events, [])
    for cut in (len(data) - 70, serialize._WINDOW, serialize._WINDOW + 5, 100):
        assert_same_outcomes(data[:cut])
