"""The race-detection driver: lockset × happens-before × derived rules.

Race detection runs in two halves.  The **trace-only half**,
:func:`race_candidates`, depends on nothing but the trace:

1. :func:`repro.analysis.lockset.run_lockset` yields the *candidates* —
   ``(allocation, member)`` pairs written from multiple contexts with no
   consistently held lock instance,
2. the happens-before pass (:func:`repro.analysis.happens.access_clocks`)
   hands each candidate access to its track's :class:`PairWalk`, a
   per-context running-maxima sweep that finds *unordered conflicting
   pairs* (write/write or read/write from different contexts with no
   happens-before path).

Its result, a :class:`RaceCandidates` record, holds the candidate
tracks and one happens-before verdict per track; it does not depend on
the acceptance threshold, so one cached copy serves every ``races``
request for a trace.  The **rule half**, :meth:`RaceCandidates.classify`,
joins each candidate with LockDoc's **derived winning rules**: does any
access in the group violate the rule the rest of the system supports?
:func:`detect_races` is exactly the two halves in sequence.

The cross product classifies every candidate:

=====================  ===========  ============  =======================
class                  unordered?   violates rule  meaning
=====================  ===========  ============  =======================
rule-confirmed race    yes          yes           the statistically mined
                                                  discipline *and* the
                                                  ordering analysis agree
                                                  this access races
lockset race           yes          no            no consistent lock and
                                                  no ordering, but also no
                                                  mined rule against it
ordered violation      no           yes           breaks the rule, but a
                                                  synchronization chain
                                                  orders every pair —
                                                  the classic init-phase
                                                  Tab. 7 false positive
benign                 no           no            consistently unlocked
                                                  and totally ordered
=====================  ===========  ============  =======================

Findings carry interned stack/context witnesses exactly like the Tab. 8
violation reports (:mod:`repro.core.violations`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.happens import HappensBeforeIndex, access_clocks
from repro.analysis.lockset import LocksetResult, MemberTrack, run_lockset
from repro.core.derivator import DerivationResult
from repro.core.lockrefs import LockSeq
from repro.core.report import render_counts, render_table
from repro.core.rules import LockingRule, complies
from repro.db.database import TraceDatabase
from repro.db.filters import REASON_STALE_LOCK, REASON_SYNTHETIC_TXN
from repro.db.schema import AccessRow
from repro.tracing.events import Event


class RaceClass(enum.Enum):
    """Classification of one race candidate (most severe first)."""

    RULE_CONFIRMED_RACE = "rule-confirmed race"
    LOCKSET_RACE = "lockset race"
    ORDERED_VIOLATION = "ordered violation"
    BENIGN = "benign"


#: Render/sort order of the classes.
_SEVERITY = {
    RaceClass.RULE_CONFIRMED_RACE: 0,
    RaceClass.LOCKSET_RACE: 1,
    RaceClass.ORDERED_VIOLATION: 2,
    RaceClass.BENIGN: 3,
}

#: The classes that are actual races (unordered conflicting pairs).
RACE_CLASSES = (RaceClass.RULE_CONFIRMED_RACE, RaceClass.LOCKSET_RACE)


@dataclass
class RaceFinding:
    """All same-class candidates of one ``(type_key, member)`` target."""

    race_class: RaceClass
    type_key: str
    member: str
    allocs: int = 0
    events: int = 0
    pairs: int = 0
    contexts: Set[int] = field(default_factory=set)  # execution contexts
    stacks: Set[int] = field(default_factory=set)  # interned stack ids
    locations: Set[Tuple[str, int]] = field(default_factory=set)
    rules: Dict[str, LockingRule] = field(default_factory=dict)
    #: First unordered conflicting pair (race classes only).
    sample_pair: Optional[Tuple[AccessRow, AccessRow]] = None
    #: First rule-violating access (violation classes only).
    sample_violation: Optional[AccessRow] = None

    @property
    def is_race(self) -> bool:
        return self.race_class in RACE_CLASSES

    def rule_text(self) -> str:
        if not self.rules:
            return "no lock needed"
        return "; ".join(
            f"[{access_type}] {rule.format()}"
            for access_type, rule in sorted(self.rules.items())
        )

    def format(self) -> str:
        lines = [
            f"{self.race_class.value}: {self.type_key}.{self.member} "
            f"({self.events} events, {len(self.contexts)} contexts, "
            f"{self.allocs} object(s); rule {self.rule_text()})"
        ]
        if self.sample_pair is not None:
            a, b = self.sample_pair
            lines.append(
                f"  unordered pair: [{a.access_type}] {a.file}:{a.line} "
                f"(ctx {a.ctx_id})  <-?->  [{b.access_type}] "
                f"{b.file}:{b.line} (ctx {b.ctx_id})"
            )
        elif self.sample_violation is not None:
            v = self.sample_violation
            held = " -> ".join(ref.format() for ref in v.lockseq) or "(none)"
            lines.append(
                f"  violating access: [{v.access_type}] {v.file}:{v.line} "
                f"(ctx {v.ctx_id}) held [{held}]"
            )
        return "\n".join(lines)


@dataclass
class RaceReport:
    """The classified race findings of one trace."""

    findings: List[RaceFinding]
    tracked_members: int
    candidate_count: int
    state_counts: Dict[str, int]
    #: Accesses excluded because their transaction was closed by a
    #: synthesized release (quarantine flag from the importer) — race
    #: verdicts are computed only over salvaged-clean spans.
    synthetic_excluded: int = 0

    def races(self) -> List[RaceFinding]:
        """Findings with an actual unordered conflicting pair."""
        return [f for f in self.findings if f.is_race]

    def by_class(self, race_class: RaceClass) -> List[RaceFinding]:
        return [f for f in self.findings if f.race_class == race_class]

    def get(self, type_key: str, member: str) -> Optional[RaceFinding]:
        for finding in self.findings:
            if (finding.type_key, finding.member) == (type_key, member):
                return finding
        return None

    def class_counts(self) -> Dict[RaceClass, int]:
        counts = {cls: 0 for cls in RaceClass}
        for finding in self.findings:
            counts[finding.race_class] += 1
        return counts

    def render(self, examples: int = 0) -> str:
        lines = [
            f"race detection: {self.tracked_members} (object, member) pairs "
            f"tracked, {self.candidate_count} lockset candidates",
        ]
        if self.synthetic_excluded:
            lines.append(
                f"{self.synthetic_excluded} access(es) with untrusted lock "
                f"state excluded (synthetic close / stale-lock span)"
            )
        lines += [
            render_counts(
                self.state_counts,
                title="lockset states",
                headers=("state", "members"),
            ),
        ]
        rows = [
            [
                f.race_class.value,
                f"{f.type_key}.{f.member}",
                f.allocs,
                f.events,
                len(f.contexts),
                f.rule_text(),
            ]
            for f in self.findings
        ]
        lines.append(
            render_table(
                ["class", "target", "objects", "events", "ctxs", "winning rule"],
                rows,
                title="classified lockset candidates",
            )
        )
        races = self.races()
        if races:
            lines.append(f"{len(races)} racy target(s):")
        else:
            lines.append("no unordered conflicting accesses found")
        for finding in self.findings[:examples] if examples else races:
            lines.append(finding.format())
        return "\n".join(lines)


#: Happens-before verdict of one candidate track: the first unordered
#: conflicting pair as row positions in ``track.accesses`` (None when
#: every pair is ordered), and the number of detections.
Verdict = Tuple[Optional[Tuple[int, int]], int]


@dataclass
class RaceCandidates:
    """The trace-only half of race detection: everything
    :meth:`classify` reads, and nothing that depends on the rules.

    Lockset and happens-before depend only on the trace, so one record
    serves every acceptance threshold; it is small (only the candidate
    tracks' rows) and pickles as one cache artifact.
    """

    #: Candidate tracks in lockset sort order, with their rows.
    candidates: List[MemberTrack]
    #: One happens-before verdict per candidate, in the same order.
    verdicts: List[Verdict]
    tracked_members: int
    #: Lockset state counts as ``{state.value: count}``.
    state_counts: Dict[str, int]
    synthetic_excluded: int = 0

    @classmethod
    def build(
        cls,
        lockset: LocksetResult,
        hb: HappensBeforeIndex,
        synthetic_excluded: int = 0,
    ) -> "RaceCandidates":
        """Judge every lockset candidate against *hb*, which must hold
        a stamp for every access of every candidate track."""
        return cls.judged(
            lockset,
            [_first_unordered_pair(track, hb) for track in lockset.candidates],
            synthetic_excluded,
        )

    @classmethod
    def judged(
        cls,
        lockset: LocksetResult,
        verdicts: List[Verdict],
        synthetic_excluded: int = 0,
    ) -> "RaceCandidates":
        """The record of *lockset*'s candidates and their *verdicts*."""
        return cls(
            candidates=lockset.candidates,
            verdicts=verdicts,
            tracked_members=len(lockset.tracks),
            state_counts={
                state.value: count
                for state, count in lockset.state_counts().items()
            },
            synthetic_excluded=synthetic_excluded,
        )

    def classify(self, derivation: DerivationResult) -> RaceReport:
        """Join the candidates with the derived rules of *derivation*."""
        grouped: Dict[Tuple[RaceClass, str, str], RaceFinding] = {}
        for track, (positions, pairs) in zip(self.candidates, self.verdicts):
            rules = _track_rules(track, derivation)
            violation = _first_violation(track.accesses, rules)
            if positions is not None:
                race_class = (
                    RaceClass.RULE_CONFIRMED_RACE
                    if violation is not None
                    else RaceClass.LOCKSET_RACE
                )
                first, second = positions
                pair = (track.accesses[first], track.accesses[second])
            else:
                race_class = (
                    RaceClass.ORDERED_VIOLATION
                    if violation is not None
                    else RaceClass.BENIGN
                )
                pair = None
            key = (race_class, track.type_key, track.member)
            finding = grouped.get(key)
            if finding is None:
                finding = RaceFinding(
                    race_class=race_class,
                    type_key=track.type_key,
                    member=track.member,
                )
                grouped[key] = finding
            _account(finding, track, rules, pair, pairs, violation)

        findings = sorted(
            grouped.values(),
            key=lambda f: (_SEVERITY[f.race_class], -f.events, f.type_key, f.member),
        )
        return RaceReport(
            findings=findings,
            tracked_members=self.tracked_members,
            candidate_count=len(self.candidates),
            state_counts=dict(self.state_counts),
            synthetic_excluded=self.synthetic_excluded,
        )


def race_candidates(events: Sequence[Event], db: TraceDatabase) -> RaceCandidates:
    """The trace-only half of race detection over one trace.

    *events* must be the raw event stream the *db* was imported from
    (the happens-before edges live in the lock events, which the
    database's transaction view folds away).  Each candidate access is
    judged the moment the happens-before pass reaches it, so no clock
    snapshot outlives its access.
    """
    lockset = run_lockset(db)
    verdicts = _verdicts_in_pass(events, lockset.candidates)
    if verdicts is None:
        # Access timestamps do not rise along the stream (a duplicating
        # or reordering fault): judge each row by the stamp of the last
        # event at its timestamp, as the stamp index always has.
        hb = HappensBeforeIndex.build(
            events, [row.ts for track in lockset.candidates for row in track.accesses]
        )
        verdicts = [_first_unordered_pair(track, hb) for track in lockset.candidates]
    return RaceCandidates.judged(
        lockset,
        verdicts,
        synthetic_excluded=sum(
            1
            for a in db.accesses
            if a.filter_reason in (REASON_SYNTHETIC_TXN, REASON_STALE_LOCK)
        ),
    )


def detect_races(
    events: Sequence[Event],
    db: TraceDatabase,
    derivation: DerivationResult,
) -> RaceReport:
    """Run the full race-detection pipeline over one trace."""
    return race_candidates(events, db).classify(derivation)


def classify_candidates(
    lockset: LocksetResult,
    hb: HappensBeforeIndex,
    derivation: DerivationResult,
    synthetic_excluded: int = 0,
) -> RaceReport:
    """Classify lockset candidates against *hb* and the derived rules.

    The streaming engine (:mod:`repro.stream`) calls this with its
    incrementally built state; it produces the same report as
    :func:`detect_races` given the same inputs.
    """
    return RaceCandidates.build(lockset, hb, synthetic_excluded).classify(
        derivation
    )


# ----------------------------------------------------------------------
# Per-candidate machinery
# ----------------------------------------------------------------------


class PairWalk:
    """The search for unordered conflicting pairs in one candidate
    track, one access at a time in trace order.

    Keeps, per context, the latest access and the latest write.
    Program order and transitivity make the latest conflicting access
    per context a sufficient witness: if it happens-before the current
    access, every earlier one does too.  The test is
    :func:`~repro.analysis.happens.happens_before` read inline: an
    earlier access of context ``c`` at index ``i`` is ordered before
    the current one iff the current access knows ``c`` up to ``i``, so
    each context keeps only ``(index, position)`` and no clock.
    """

    __slots__ = ("rows", "position", "_last_any", "_last_write", "_first", "_pairs")

    def __init__(self, rows: Sequence[AccessRow]) -> None:
        self.rows = rows
        #: How many rows have been judged.
        self.position = 0
        self._last_any: Dict[int, Tuple[int, int]] = {}
        self._last_write: Dict[int, Tuple[int, int]] = {}
        self._first: Optional[Tuple[int, int]] = None
        self._pairs = 0

    def step(self, index: int, knows: Mapping[int, int]) -> None:
        """Judge the next row, made as its context's event *index*
        knowing *knows* of the other contexts."""
        position = self.position
        self.position = position + 1
        row = self.rows[position]
        ctx_id = row.ctx_id
        is_write = row.access_type == "w"
        for ctx, (other_index, other_position) in (
            self._last_any if is_write else self._last_write
        ).items():
            if ctx != ctx_id and knows.get(ctx, 0) < other_index:
                self._pairs += 1
                if self._first is None:
                    self._first = (other_position, position)
        latest = (index, position)
        self._last_any[ctx_id] = latest
        if is_write:
            self._last_write[ctx_id] = latest

    def verdict(self) -> Verdict:
        """The first pair found (as row positions) and the number of
        detections, over the rows stepped so far."""
        return self._first, self._pairs


def _verdicts_in_pass(
    events: Sequence[Event], candidates: List[MemberTrack]
) -> Optional[List[Verdict]]:
    """Each candidate's verdict, its rows judged as the happens-before
    pass reaches them.

    Only each track's next row waits, keyed by its timestamp, so the
    pass holds one entry per track.  That finds every row's event when
    access timestamps rise strictly along the stream, as they do in
    every recorded trace; on a stream where they do not (a duplicating
    or reordering fault) this returns None.
    """
    waiting: Dict[int, PairWalk] = {}
    for track in candidates:
        waiting[track.accesses[0].ts] = PairWalk(track.accesses)
    walks = list(waiting.values())
    if len(walks) != len(candidates):  # two tracks start at one timestamp
        return None
    last = -1
    next_row = waiting.pop
    for ts, _, index, knows in access_clocks(events):
        if ts <= last:
            return None
        last = ts
        walk = next_row(ts, None)
        if walk is not None:
            walk.step(index, knows)
            if walk.position < len(walk.rows):
                waiting[walk.rows[walk.position].ts] = walk
    if any(walk.position != len(walk.rows) for walk in walks):
        return None
    return [walk.verdict() for walk in walks]


def _first_unordered_pair(track: MemberTrack, hb: HappensBeforeIndex) -> Verdict:
    """The :class:`PairWalk` verdict of one track over *hb*'s stamps."""
    walk = PairWalk(track.accesses)
    stamps = hb.stamps
    for row in track.accesses:
        stamp = stamps[row.ts]
        walk.step(stamp.index, stamp.knows)
    return walk.verdict()


def _track_rules(
    track: MemberTrack, derivation: DerivationResult
) -> Dict[str, LockingRule]:
    """The derived winning rule of each access type of the track's
    target that needs a lock; every row of a track has the track's
    ``type_key`` and ``member``, so this is at most two lookups."""
    rules: Dict[str, LockingRule] = {}
    for access_type in ("r", "w"):
        derived = derivation.get(track.type_key, track.member, access_type)
        if derived is not None and not derived.rule.is_no_lock:
            rules[access_type] = derived.rule
    return rules


def _first_violation(
    rows: List[AccessRow], rules: Dict[str, LockingRule]
) -> Optional[AccessRow]:
    """The first row that violates its access type's rule in *rules*.

    Whether a lock sequence complies is decided once per access type
    and distinct sequence: looked up by the sequence object's identity
    (the replay interns sequences, and *rows* keeps every one alive),
    then by value, so equal sequences held in distinct tuples (as
    unpickled or repaired rows may hold them) share one decision too.
    """
    if not rules:
        return None
    by_identity: Dict[str, Dict[int, bool]] = {t: {} for t in rules}
    by_value: Dict[str, Dict[LockSeq, bool]] = {t: {} for t in rules}
    for row in rows:
        access_type = row.access_type
        decided = by_identity.get(access_type)
        if decided is None:
            continue
        seq = row.lockseq
        ok = decided.get(id(seq))
        if ok is None:
            values = by_value[access_type]
            ok = values.get(seq)
            if ok is None:
                ok = values[seq] = complies(seq, rules[access_type])
            decided[id(seq)] = ok
        if not ok:
            return row
    return None


def _account(
    finding: RaceFinding,
    track: MemberTrack,
    rules: Dict[str, LockingRule],
    pair: Optional[Tuple[AccessRow, AccessRow]],
    pairs: int,
    violation: Optional[AccessRow],
) -> None:
    rows = track.accesses
    finding.allocs += 1
    finding.events += len(rows)
    finding.pairs += pairs
    finding.contexts.update(track.ctx_ids)
    finding.stacks.update([row.stack_id for row in rows])
    finding.locations.update([(row.file, row.line) for row in rows])
    if rules:
        present = {row.access_type for row in rows}
        for access_type, rule in rules.items():
            if access_type in present:
                finding.rules.setdefault(access_type, rule)
    if finding.sample_pair is None:
        finding.sample_pair = pair
    if finding.sample_violation is None:
        finding.sample_violation = violation
