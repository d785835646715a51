"""Dynamic race analysis over LockDoc traces.

LockDoc's violation finder (Sec. 5.5) flags accesses that break the
*derived* locking rule, but a rule violation alone cannot say whether
the access can actually race — init-phase accesses, for example,
legitimately skip locking because nothing runs concurrently yet.  This
package adds the classic dynamic-race toolbox on top of the same trace
substrate:

* :mod:`repro.analysis.lockset`     — Eraser-style lockset algorithm
  with the virgin → exclusive → shared → shared-modified state machine,
* :mod:`repro.analysis.vectorclock` — sparse vector clocks,
* :mod:`repro.analysis.happens`     — happens-before order built from
  program order plus lock release→acquire edges in the trace,
* :mod:`repro.analysis.racedetect`  — the driver joining lockset
  candidates, happens-before, and LockDoc's derived winning rules into
  classified race reports (the first two in a threshold-independent
  :class:`~repro.analysis.racedetect.RaceCandidates` record).

The combination is strictly stronger than either side alone: the
lockset pass finds members with no consistent lock, happens-before
prunes the candidates that are totally ordered anyway, and the derived
rules say which surviving candidates contradict the locking discipline
the rest of the system follows.
"""

from repro.analysis.happens import AccessStamp, HappensBeforeIndex, happens_before
from repro.analysis.lockset import LocksetResult, MemberState, run_lockset
from repro.analysis.racedetect import (
    RaceCandidates,
    RaceClass,
    RaceFinding,
    RaceReport,
    classify_candidates,
    detect_races,
    race_candidates,
)
from repro.analysis.vectorclock import VectorClock

__all__ = [
    "AccessStamp",
    "HappensBeforeIndex",
    "LocksetResult",
    "MemberState",
    "RaceCandidates",
    "RaceClass",
    "RaceFinding",
    "RaceReport",
    "VectorClock",
    "classify_candidates",
    "detect_races",
    "happens_before",
    "race_candidates",
    "run_lockset",
]
