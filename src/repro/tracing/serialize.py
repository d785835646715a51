"""Trace serialization.

The paper's pipeline writes the raw trace to disk, then imports several
generated CSV tables into a MariaDB database (Sec. 6).  This module
provides the equivalent archival step with two interchangeable formats:

* a **text format** (one tab-separated record per line, with a stack
  table section) — human-greppable, like the paper's CSV intermediates,
* a **binary format** (length-prefixed, ``struct``-packed) — compact,
  for large traces.

Both round-trip exactly: ``load(dump(trace)) == trace``.

Ingestion contract
------------------

Real traces are killed mid-write, torn at record boundaries, and
mangled by transport.  Every loader therefore comes in two modes:

* **strict** (``load_text`` / ``load_binary``): the first malformed
  byte raises :class:`TraceFormatError` — always that class, never a
  bare ``KeyError``/``struct.error``/``IndexError`` — and the message
  carries the position (line number for text, byte offset for binary)
  plus the offending record.
* **lenient** (``load_text_lenient`` / ``load_binary_lenient``): never
  raises on malformed input; salvages every decodable record and
  returns a :class:`LoadReport` whose ``diagnostics`` list one
  :class:`Diagnostic` (position, reason, record snippet) per defect.

The text format resynchronizes per line, so a mangled line costs only
itself.  The binary format is length-prefixed without sync markers, so
a torn record loses framing: lenient mode salvages the clean prefix and
reports the tear offset.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, List, Optional, Sequence, TextIO, Tuple

from repro.tracing.events import (
    AccessEvent,
    AllocEvent,
    Event,
    FreeEvent,
    LockEvent,
)
from repro.tracing.tracer import Tracer

_TEXT_MAGIC = "# lockdoc-trace v1"
_BIN_MAGIC = b"LDOC1\n"

#: Trace-format version tag (the binary magic without framing).  Cache
#: keys include it so a format change invalidates every cached trace.
FORMAT_VERSION = "LDOC1"

_NONE_SUBCLASS = "-"

StackFrames = Tuple[Tuple[str, str, int], ...]


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed (strict mode only)."""


class _ShortRead(Exception):
    """Internal: a binary read hit EOF mid-record."""


@dataclass(frozen=True)
class Diagnostic:
    """One malformed-input finding from a lenient load.

    ``location`` is ``"line N"`` (text) or ``"offset 0xN"`` (binary).
    """

    location: str
    reason: str
    record: str = ""

    def format(self) -> str:
        suffix = f" in {self.record!r}" if self.record else ""
        return f"{self.location}: {self.reason}{suffix}"


@dataclass
class LoadReport:
    """Result of loading a trace: salvage plus per-record diagnostics."""

    events: List[Event] = field(default_factory=list)
    stacks: List[StackFrames] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Event count the file header declared (None if the header itself
    #: was unreadable).
    declared_events: Optional[int] = None

    @property
    def malformed_count(self) -> int:
        return len(self.diagnostics)

    @property
    def malformed_fraction(self) -> float:
        """Defects relative to the declared (or salvaged) record count."""
        denominator = max(self.declared_events or 0, len(self.events), 1)
        return len(self.diagnostics) / denominator

    def as_tuple(self) -> Tuple[List[Event], List[StackFrames]]:
        return self.events, self.stacks


def stacks_of(tracer: Tracer) -> List[StackFrames]:
    """Materialize a tracer's interned stack table."""
    return [tracer.stack(i) for i in range(tracer.stack_count)]


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------


def write_text(
    events: Sequence[Event], stacks: Sequence[StackFrames], fp: TextIO
) -> None:
    """Write an event stream and stack table as text."""
    fp.write(_TEXT_MAGIC + "\n")
    fp.write(f"stacks {len(stacks)}\n")
    for stack_id, frames in enumerate(stacks):
        encoded = ";".join(f"{fn}@{file}:{line}" for fn, file, line in frames)
        fp.write(f"S\t{stack_id}\t{encoded}\n")
    fp.write(f"events {len(events)}\n")
    for event in events:
        fp.write(_encode_text(event) + "\n")


def dump_text(tracer: Tracer, fp: TextIO) -> None:
    """Write the tracer's events and stack table as text."""
    write_text(tracer.events, stacks_of(tracer), fp)


def _encode_text(event: Event) -> str:
    if isinstance(event, AllocEvent):
        return "\t".join(
            [
                "A",
                str(event.ts),
                str(event.ctx_id),
                str(event.alloc_id),
                f"{event.address:#x}",
                str(event.size),
                event.data_type,
                event.subclass or _NONE_SUBCLASS,
            ]
        )
    if isinstance(event, FreeEvent):
        return "\t".join(
            ["F", str(event.ts), str(event.ctx_id), str(event.alloc_id), f"{event.address:#x}"]
        )
    if isinstance(event, AccessEvent):
        return "\t".join(
            [
                "W" if event.is_write else "R",
                str(event.ts),
                str(event.ctx_id),
                f"{event.address:#x}",
                str(event.size),
                str(event.stack_id),
                event.file,
                str(event.line),
            ]
        )
    if isinstance(event, LockEvent):
        return "\t".join(
            [
                "L+" if event.is_acquire else "L-",
                str(event.ts),
                str(event.ctx_id),
                str(event.lock_id),
                event.lock_class,
                event.lock_name,
                f"{event.address:#x}" if event.address is not None else _NONE_SUBCLASS,
                event.mode,
                str(event.stack_id),
                event.file,
                str(event.line),
            ]
        )
    raise TraceFormatError(f"unknown event type {type(event).__name__}")


def load_text(fp: TextIO) -> Tuple[List[Event], List[StackFrames]]:
    """Read a text trace strictly; returns ``(events, stack_table)``.

    Raises :class:`TraceFormatError` — with line number and offending
    record — on the first malformed input.
    """
    return _load_text(fp, lenient=False).as_tuple()


def load_text_lenient(fp: TextIO) -> LoadReport:
    """Read a text trace, salvaging around malformed records."""
    return _load_text(fp, lenient=True)


def _load_text(fp: TextIO, lenient: bool) -> LoadReport:
    report = LoadReport()
    lineno = 0

    def next_line() -> str:
        nonlocal lineno
        lineno += 1
        return fp.readline()

    def problem(reason: str, record: str = "") -> None:
        if not lenient:
            suffix = f": {record!r}" if record else ""
            raise TraceFormatError(f"line {lineno}: {reason}{suffix}")
        report.diagnostics.append(Diagnostic(f"line {lineno}", reason, record))

    header = next_line().rstrip("\n")
    if header != _TEXT_MAGIC:
        reason = "empty trace file" if header == "" else f"bad magic {header!r}"
        problem(reason)
        return report

    stacks_line = next_line().split()
    if len(stacks_line) != 2 or stacks_line[0] != "stacks":
        problem("missing stack table header")
        return report
    try:
        stack_count = int(stacks_line[1])
    except ValueError:
        problem(f"bad stack count {stacks_line[1]!r}")
        return report

    # Stack table.  A truncated table may run straight into the events
    # header; detect that and resynchronize instead of mis-parsing.
    events_header: Optional[str] = None
    for _ in range(max(stack_count, 0)):
        raw = next_line()
        if raw == "":
            problem(
                f"truncated stack table: expected {stack_count} stacks, "
                f"got {len(report.stacks)}"
            )
            return report
        line = raw.rstrip("\n")
        if line.startswith("events "):
            problem(
                f"truncated stack table: expected {stack_count} stacks, "
                f"got {len(report.stacks)}"
            )
            events_header = line
            break
        parts = line.split("\t")
        if parts[0] != "S":
            problem(f"expected stack record, got {parts[0]!r}", line)
            report.stacks.append(())
            continue
        encoded = parts[2] if len(parts) > 2 else ""
        frames: List[Tuple[str, str, int]] = []
        try:
            if encoded:
                for item in encoded.split(";"):
                    fn, _, loc = item.partition("@")
                    file, _, line_str = loc.rpartition(":")
                    frames.append((fn, file, int(line_str)))
        except ValueError:
            problem("malformed stack frame", line)
        report.stacks.append(tuple(frames))

    if events_header is None:
        events_header = next_line().rstrip("\n")
    events_line = events_header.split()
    if len(events_line) != 2 or events_line[0] != "events":
        problem("missing events header", events_header)
        return report
    try:
        event_count = int(events_line[1])
    except ValueError:
        problem(f"bad event count {events_line[1]!r}")
        return report
    report.declared_events = event_count

    for _ in range(max(event_count, 0)):
        raw = next_line()
        if raw == "":
            problem(
                f"truncated events: expected {event_count}, "
                f"got {len(report.events)}"
            )
            break
        line = raw.rstrip("\n")
        try:
            report.events.append(_decode_text(line))
        except (TraceFormatError, ValueError, IndexError) as exc:
            problem(_bare_reason(exc), line)
    return report


def _bare_reason(exc: Exception) -> str:
    if isinstance(exc, TraceFormatError):
        return str(exc)
    if isinstance(exc, IndexError):
        return "truncated record (missing fields)"
    return f"bad field value ({exc})"


def _decode_text(line: str) -> Event:
    parts = line.split("\t")
    tag = parts[0]
    if tag == "A":
        return AllocEvent(
            ts=int(parts[1]),
            ctx_id=int(parts[2]),
            alloc_id=int(parts[3]),
            address=int(parts[4], 16),
            size=int(parts[5]),
            data_type=parts[6],
            subclass=None if parts[7] == _NONE_SUBCLASS else parts[7],
        )
    if tag == "F":
        return FreeEvent(
            ts=int(parts[1]),
            ctx_id=int(parts[2]),
            alloc_id=int(parts[3]),
            address=int(parts[4], 16),
        )
    if tag in ("R", "W"):
        return AccessEvent(
            ts=int(parts[1]),
            ctx_id=int(parts[2]),
            address=int(parts[3], 16),
            size=int(parts[4]),
            is_write=(tag == "W"),
            stack_id=int(parts[5]),
            file=parts[6],
            line=int(parts[7]),
        )
    if tag in ("L+", "L-"):
        return LockEvent(
            ts=int(parts[1]),
            ctx_id=int(parts[2]),
            lock_id=int(parts[3]),
            lock_class=parts[4],
            lock_name=parts[5],
            address=None if parts[6] == _NONE_SUBCLASS else int(parts[6], 16),
            is_acquire=(tag == "L+"),
            mode=parts[7],
            stack_id=int(parts[8]),
            file=parts[9],
            line=int(parts[10]),
        )
    raise TraceFormatError(f"unknown record tag {tag!r}")


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------
#
# After the magic come the stack table (u32 stack count; per stack a u16
# frame count, then per frame fn, file and a u32 line) and the u64
# event count, then one record per event: u8 tag, u64 ts, u32 ctx_id
# and the kind's fields.  Integers are little-endian; a string is a u16
# byte length plus that many UTF-8 bytes.
#
#   alloc   u64 alloc_id, u64 address, u32 size, data_type, subclass
#   free    u64 alloc_id, u64 address
#   access  u64 address, u32 size, u64 stack_id, file, u32 line
#   lock    u64 lock_id, u8 has_address, u64 address, lock_class,
#           lock_name, mode, u64 stack_id, file, u32 line

_TAG_ALLOC, _TAG_FREE, _TAG_READ, _TAG_WRITE, _TAG_ACQ, _TAG_REL = range(6)

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# The header and fixed fields of each record kind, fused into one struct.
# The decoder's ``*_HEAD`` variants also take the length prefix of the
# string that follows, so a record costs one unpack per string.
_ALLOC_FIXED = struct.Struct("<BQIQQI")
_FREE_FIXED = struct.Struct("<BQIQQ")
_ACCESS_FIXED = struct.Struct("<BQIQIQ")
_LOCK_FIXED = struct.Struct("<BQIQBQ")
_ALLOC_HEAD = struct.Struct("<BQIQQIH")
_ACCESS_HEAD = struct.Struct("<BQIQIQH")
_LOCK_HEAD = struct.Struct("<BQIQBQH")
_STACK_ID_HEAD = struct.Struct("<QH")  # a lock's stack_id, then file's length

#: The fields after each kind's 13-byte header, in file order: a number
#: is a fixed-width read of that many bytes, ``None`` a string.
_RECORD_FIELDS = {
    _TAG_ALLOC: (20, None, None),
    _TAG_FREE: (16,),
    _TAG_READ: (20, None, 4),
    _TAG_WRITE: (20, None, 4),
    _TAG_ACQ: (17, None, None, None, 8, None, 4),
    _TAG_REL: (17, None, None, None, 8, None, 4),
}
_HEADER_SIZE = 13

#: Bytes per read (decoder) and per write (encoder).
_WINDOW = 256 * 1024


class _EncodedStrings(dict):
    """``str`` → its length-prefixed UTF-8 bytes, encoded once."""

    def __missing__(self, value: str) -> bytes:
        raw = value.encode("utf-8")
        packed = self[value] = _U16.pack(len(raw)) + raw
        return packed


def write_binary(
    events: Sequence[Event], stacks: Sequence[StackFrames], fp: BinaryIO
) -> None:
    """Write an event stream and stack table in binary form."""
    text = _EncodedStrings()
    out = bytearray(_BIN_MAGIC)
    out += _U32.pack(len(stacks))
    pack_u32 = _U32.pack
    for frames in stacks:
        out += _U16.pack(len(frames))
        for fn, file, line in frames:
            out += text[fn]
            out += text[file]
            out += pack_u32(line)
    out += _U64.pack(len(events))

    pack_alloc = _ALLOC_FIXED.pack
    pack_free = _FREE_FIXED.pack
    pack_access = _ACCESS_FIXED.pack
    pack_lock = _LOCK_FIXED.pack
    pack_u64 = _U64.pack
    for event in events:
        kind = type(event)
        if kind is AccessEvent:
            ts, ctx_id, address, size, is_write, stack_id, file, line = event
            out += pack_access(
                _TAG_WRITE if is_write else _TAG_READ,
                ts, ctx_id, address, size, stack_id,
            )
            out += text[file]
            out += pack_u32(line)
        elif kind is LockEvent:
            (ts, ctx_id, lock_id, lock_class, lock_name, address,
             is_acquire, mode, stack_id, file, line) = event
            out += pack_lock(
                _TAG_ACQ if is_acquire else _TAG_REL, ts, ctx_id, lock_id,
                0 if address is None else 1,
                0 if address is None else address,
            )
            out += text[lock_class]
            out += text[lock_name]
            out += text[mode]
            out += pack_u64(stack_id)
            out += text[file]
            out += pack_u32(line)
        elif kind is AllocEvent:
            ts, ctx_id, alloc_id, address, size, data_type, subclass = event
            out += pack_alloc(_TAG_ALLOC, ts, ctx_id, alloc_id, address, size)
            out += text[data_type]
            out += text[subclass or _NONE_SUBCLASS]
        elif kind is FreeEvent:
            ts, ctx_id, alloc_id, address = event
            out += pack_free(_TAG_FREE, ts, ctx_id, alloc_id, address)
        else:
            fp.write(out)
            raise TraceFormatError(f"unknown event type {kind.__name__}")
        if len(out) >= _WINDOW:
            fp.write(out)
            del out[:]
    fp.write(out)


def dump_binary(tracer: Tracer, fp: BinaryIO) -> None:
    """Write the tracer's events and stack table in binary form."""
    write_binary(tracer.events, stacks_of(tracer), fp)


def load_binary(fp: BinaryIO) -> Tuple[List[Event], List[StackFrames]]:
    """Read a binary trace strictly; returns ``(events, stack_table)``.

    Raises :class:`TraceFormatError` — with the byte offset of the bad
    record — on the first malformed input.
    """
    return _load_binary(fp, lenient=False).as_tuple()


def load_binary_lenient(fp: BinaryIO) -> LoadReport:
    """Read a binary trace, salvaging the clean prefix of the stream."""
    return _load_binary(fp, lenient=True)


_DECODE_ERRORS = (_ShortRead, struct.error, UnicodeDecodeError, ValueError)


class _Strings(dict):
    """Per-stream interning: encoded bytes → decoded ``str``.

    A trace repeats a few hundred file, lock and type names hundreds of
    thousands of times; each distinct one is decoded and stored once.
    """

    def __missing__(self, raw: bytes) -> str:
        value = self[raw] = raw.decode("utf-8")
        return value


class _Torn(Exception):
    """Internal: decoding stopped at ``offset`` because of ``cause``."""

    def __init__(self, offset: int, cause: Exception) -> None:
        super().__init__(offset, cause)
        self.offset = offset
        self.cause = cause


class _Window:
    """The unread part of a binary trace, fetched in fixed-size reads.

    ``buf[pos:]`` is unread; ``base`` is the file offset of ``buf[0]``.
    """

    __slots__ = ("fp", "buf", "pos", "base")

    def __init__(self, fp: BinaryIO) -> None:
        self.fp = fp
        self.buf = b""
        self.pos = 0
        self.base = fp.tell()

    def fill(self, need: int) -> bool:
        """Make *need* unread bytes available; False if the file ends
        first.  Bytes before ``pos`` are dropped."""
        unread = len(self.buf) - self.pos
        while unread < need:
            # Reading at least as much as is buffered keeps a long
            # accumulation (a record bigger than the window) linear.
            more = self.fp.read(max(_WINDOW, need - unread, unread))
            if not more:
                return False
            self.base += self.pos
            self.buf = self.buf[self.pos:] + more
            self.pos = 0
            unread = len(self.buf)
        return True


class _Fields:
    """Field-by-field reads from a window's position, which stays put.

    This is the format's reference reading order: a short read raises
    :class:`_ShortRead` with the same text a file read would, so the
    error path reports exactly where and why a record tore.
    """

    __slots__ = ("win", "strings", "used")

    def __init__(self, win: _Window, strings: _Strings) -> None:
        self.win = win
        self.strings = strings
        self.used = 0

    def take(self, count: int) -> bytes:
        win = self.win
        if not win.fill(self.used + count):
            got = len(win.buf) - win.pos - self.used
            self.used += got
            raise _ShortRead(f"wanted {count} bytes, got {got}")
        start = win.pos + self.used
        self.used += count
        return win.buf[start:start + count]

    def text(self) -> str:
        (length,) = _U16.unpack(self.take(2))
        return self.strings[self.take(length)]

    def tell(self) -> int:
        return self.win.base + self.win.pos + self.used


def _read_stack_table(
    win: _Window, strings: _Strings
) -> Tuple[List[StackFrames], int]:
    """Read the stack table and the declared event count (post-magic).

    A defect raises :class:`_Torn` at the offset the read stopped at.
    """
    fields = _Fields(win, strings)
    take, text = fields.take, fields.text
    stacks: List[StackFrames] = []
    try:
        (stack_count,) = _U32.unpack(take(4))
        for _ in range(stack_count):
            (frame_count,) = _U16.unpack(take(2))
            frames = []
            for _ in range(frame_count):
                fn = text()
                file = text()
                (line,) = _U32.unpack(take(4))
                frames.append((fn, file, line))
            stacks.append(tuple(frames))
        (event_count,) = _U64.unpack(take(8))
    except _DECODE_ERRORS as exc:
        raise _Torn(fields.tell(), exc) from exc
    win.pos += fields.used
    return stacks, event_count


def _record_fault(win: _Window, strings: _Strings) -> Optional[Exception]:
    """Re-read the record at the window's position field by field and
    return the exception that stops it, or None if it is whole (it only
    straddled the end of the buffered bytes, which now hold it)."""
    fields = _Fields(win, strings)
    try:
        tag = fields.take(_HEADER_SIZE)[0]
        layout = _RECORD_FIELDS.get(tag)
        if layout is None:
            return TraceFormatError(f"unknown binary tag {tag}")
        for width in layout:
            if width is None:
                fields.text()
            else:
                fields.take(width)
    except _DECODE_ERRORS as exc:
        return exc
    return None


class _Miss(Exception):
    """Internal: the fast path cannot decode the record as buffered."""


#: What the fast path raises when a record is torn, corrupt or only
#: partly buffered; :func:`_record_fault` then tells these apart.
_FAST_MISSES = (struct.error, IndexError, UnicodeDecodeError, _Miss)


def _decode_events(
    win: _Window, count: int, strings: _Strings
) -> Iterator[Event]:
    """Decode *count* records from *win*, lazily.

    Each record is parsed straight out of the buffered window with the
    fused structs.  A record the window holds only part of sends the
    reader to :func:`_record_fault`, which refills the window: a whole
    record is then retried, a torn or corrupt one raises :class:`_Torn`
    with the reason a field-by-field read gives.
    """
    new = tuple.__new__
    alloc_head = _ALLOC_HEAD.unpack_from
    free_fixed = _FREE_FIXED.unpack_from
    access_head = _ACCESS_HEAD.unpack_from
    lock_head = _LOCK_HEAD.unpack_from
    stack_id_head = _STACK_ID_HEAD.unpack_from
    u16 = _U16.unpack_from
    u32 = _U32.unpack_from
    read, write, acquire, release = _TAG_READ, _TAG_WRITE, _TAG_ACQ, _TAG_REL
    alloc, free = _TAG_ALLOC, _TAG_FREE
    alloc_size, free_size = _ALLOC_HEAD.size, _FREE_FIXED.size
    access_size, lock_size = _ACCESS_HEAD.size, _LOCK_HEAD.size
    stack_id_size = _STACK_ID_HEAD.size
    buf = win.buf
    pos = win.pos
    retried = -1
    for _ in range(count):
        while True:
            try:
                tag = buf[pos]
                if tag == read or tag == write:
                    (_, ts, ctx_id, address, size, stack_id,
                     length) = access_head(buf, pos)
                    at = pos + access_size
                    end = at + length
                    file = strings[buf[at:end]]
                    (line,) = u32(buf, end)
                    pos = end + 4
                    event = new(AccessEvent, (
                        ts, ctx_id, address, size, tag == write,
                        stack_id, file, line,
                    ))
                elif tag == acquire or tag == release:
                    (_, ts, ctx_id, lock_id, has_address, address,
                     length) = lock_head(buf, pos)
                    at = pos + lock_size
                    end = at + length
                    lock_class = strings[buf[at:end]]
                    (length,) = u16(buf, end)
                    at = end + 2
                    end = at + length
                    lock_name = strings[buf[at:end]]
                    (length,) = u16(buf, end)
                    at = end + 2
                    end = at + length
                    mode = strings[buf[at:end]]
                    stack_id, length = stack_id_head(buf, end)
                    at = end + stack_id_size
                    end = at + length
                    file = strings[buf[at:end]]
                    (line,) = u32(buf, end)
                    pos = end + 4
                    event = new(LockEvent, (
                        ts, ctx_id, lock_id, lock_class, lock_name,
                        address if has_address else None,
                        tag == acquire, mode, stack_id, file, line,
                    ))
                elif tag == alloc:
                    (_, ts, ctx_id, alloc_id, address, size,
                     length) = alloc_head(buf, pos)
                    at = pos + alloc_size
                    end = at + length
                    data_type = strings[buf[at:end]]
                    (length,) = u16(buf, end)
                    at = end + 2
                    end = at + length
                    if end > len(buf):
                        raise _Miss
                    subclass = strings[buf[at:end]]
                    pos = end
                    event = new(AllocEvent, (
                        ts, ctx_id, alloc_id, address, size, data_type,
                        None if subclass == _NONE_SUBCLASS else subclass,
                    ))
                elif tag == free:
                    _, ts, ctx_id, alloc_id, address = free_fixed(buf, pos)
                    pos += free_size
                    event = new(FreeEvent, (ts, ctx_id, alloc_id, address))
                else:
                    raise _Miss
                break
            except _FAST_MISSES:
                win.pos = pos
                cause = _record_fault(win, strings)
                offset = win.base + win.pos
                if cause is not None:
                    raise _Torn(offset, cause) from cause
                if offset == retried:
                    raise AssertionError(
                        f"offset {offset:#x}: fast and field decoders disagree"
                    )
                retried = offset
                buf = win.buf
                pos = win.pos
        yield event


@dataclass
class BinaryTraceStream:
    """A binary trace opened for streaming consumption.

    The stack table sits before the events on disk, so it is read
    eagerly; ``events`` decodes records one at a time as the iterator
    is drained, so importing a cached trace never materializes the
    event list.  Decoding is strict — a malformed record raises
    :class:`TraceFormatError` from the iterator.
    """

    stacks: List[StackFrames]
    declared_events: int
    events: Iterator[Event]


def open_binary_stream(fp: BinaryIO) -> BinaryTraceStream:
    """Open *fp* (a binary trace) for streaming; strict decoding.

    *fp* must stay open while ``.events`` is consumed.  Use
    :func:`load_binary` for the materialized ``(events, stacks)`` form.
    """
    magic = fp.read(len(_BIN_MAGIC))
    if magic != _BIN_MAGIC:
        reason = "empty trace file" if magic == b"" else f"bad magic {magic!r}"
        raise TraceFormatError(f"offset 0x0: {reason}")
    win = _Window(fp)
    strings = _Strings()
    try:
        stacks, event_count = _read_stack_table(win, strings)
    except _Torn as torn:
        raise TraceFormatError(
            f"offset {torn.offset:#x}: corrupt stack table: {torn.cause}"
        ) from torn.cause

    def _iter_events() -> Iterator[Event]:
        try:
            yield from _decode_events(win, event_count, strings)
        except _Torn as torn:
            if isinstance(torn.cause, TraceFormatError):
                raise torn.cause from None
            raise TraceFormatError(
                f"offset {torn.offset:#x}: torn record ({torn.cause})"
            ) from torn.cause

    return BinaryTraceStream(stacks, event_count, _iter_events())


def _load_binary(fp: BinaryIO, lenient: bool) -> LoadReport:
    report = LoadReport()

    def problem(offset: int, reason: str) -> None:
        if not lenient:
            raise TraceFormatError(f"offset {offset:#x}: {reason}")
        report.diagnostics.append(Diagnostic(f"offset {offset:#x}", reason))

    magic = fp.read(len(_BIN_MAGIC))
    if magic != _BIN_MAGIC:
        reason = "empty trace file" if magic == b"" else f"bad magic {magic!r}"
        problem(0, reason)
        return report

    # Stack table: its framing carries the events offset, so a defect
    # here is unrecoverable even in lenient mode.
    win = _Window(fp)
    strings = _Strings()
    try:
        stacks, event_count = _read_stack_table(win, strings)
    except _Torn as torn:
        problem(torn.offset, f"corrupt stack table: {torn.cause}")
        return report
    report.stacks.extend(stacks)
    report.declared_events = event_count

    # Events are length-prefixed with no sync marker: a torn record
    # loses framing, so lenient mode keeps the clean prefix and stops.
    try:
        report.events.extend(_decode_events(win, event_count, strings))
    except _Torn as torn:
        if isinstance(torn.cause, TraceFormatError):
            problem(torn.offset, str(torn.cause))
        else:
            problem(
                torn.offset,
                f"torn record after {len(report.events)} of "
                f"{event_count} events ({torn.cause})",
            )
    return report


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------


def dumps_text(tracer: Tracer) -> str:
    """Serialize a tracer to the text format, returning a string."""
    buffer = io.StringIO()
    dump_text(tracer, buffer)
    return buffer.getvalue()


def dumps_events_text(events: Sequence[Event], stacks: Sequence[StackFrames]) -> str:
    """Serialize an event stream to the text format."""
    buffer = io.StringIO()
    write_text(events, stacks, buffer)
    return buffer.getvalue()


def loads_text(text: str):
    """Parse a text-format trace from a string (strict)."""
    return load_text(io.StringIO(text))


def loads_text_lenient(text: str) -> LoadReport:
    """Parse a text-format trace from a string (lenient)."""
    return load_text_lenient(io.StringIO(text))


def dumps_binary(tracer: Tracer) -> bytes:
    """Serialize a tracer to the binary format, returning bytes."""
    buffer = io.BytesIO()
    dump_binary(tracer, buffer)
    return buffer.getvalue()


def dumps_events_binary(
    events: Sequence[Event], stacks: Sequence[StackFrames]
) -> bytes:
    """Serialize an event stream to the binary format."""
    buffer = io.BytesIO()
    write_binary(events, stacks, buffer)
    return buffer.getvalue()


def loads_binary(data: bytes):
    """Parse a binary-format trace from bytes (strict)."""
    return load_binary(io.BytesIO(data))


def loads_binary_lenient(data: bytes) -> LoadReport:
    """Parse a binary-format trace from bytes (lenient)."""
    return load_binary_lenient(io.BytesIO(data))


def load_path(path: str, lenient: bool = False) -> LoadReport:
    """Load a trace file, sniffing the format from its content.

    Returns a :class:`LoadReport` in both modes; in strict mode the
    first defect raises :class:`TraceFormatError` instead.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    if data.startswith(_BIN_MAGIC):
        return _load_binary(io.BytesIO(data), lenient)
    text = data.decode("utf-8", errors="replace")
    return _load_text(io.StringIO(text), lenient)
