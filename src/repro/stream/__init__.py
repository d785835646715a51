"""Fused single-pass streaming analysis (live monitoring path).

The post-mortem pipeline walks the trace three times (record →
import → fold); this package collapses them into one online pass
attached directly to the tracer's event stream:

* :mod:`repro.stream.engine`    — the fused fold/lockset/contention
  engine (:class:`StreamEngine`), installed as the tracer's event sink,
* :mod:`repro.stream.intervals` — per-tick-window contention delta
  reports for the ``watch`` CLI,
* :mod:`repro.stream.runner`    — workload execution with the sink
  attached, plus the streamed twins of the ``derive``/``races``
  runners (the CLI's ``--stream`` flag).

On protocol-clean traces the streamed rules and race reports are
bit-identical to the post-mortem pipeline's; see the equivalence
contract in :mod:`repro.stream.engine`.
"""

from repro.stream.engine import StreamEngine, StreamProtocolError
from repro.stream.intervals import IntervalReport
from repro.stream.runner import (
    StreamRun,
    run_derive_streamed,
    run_races_streamed,
    run_streamed,
)

__all__ = [
    "IntervalReport",
    "StreamEngine",
    "StreamProtocolError",
    "StreamRun",
    "run_derive_streamed",
    "run_races_streamed",
    "run_streamed",
]
