"""LockDoc's core contribution: locking-rule derivation and analysis.

The subpackage implements phases 2 and 3 of the paper:

* :mod:`repro.core.lockrefs`      — lock abstraction (global / ES / EO)
* :mod:`repro.core.rules`         — locking rules + compliance semantics
* :mod:`repro.core.observations`  — folded per-transaction access matrix
* :mod:`repro.core.hypotheses`    — hypothesis enumeration and support
* :mod:`repro.core.memo`          — canonical-profile hypothesis memo
* :mod:`repro.core.selection`     — winning-hypothesis selection
* :mod:`repro.core.derivator`     — end-to-end rule derivation (serial,
  memoized per observation profile)
* :mod:`repro.core.checker`       — Locking-Rule Checker  (Sec. 7.3)
* :mod:`repro.core.docgen`        — Documentation Generator (Fig. 8)
* :mod:`repro.core.violations`    — Rule-Violation Finder  (Sec. 7.5)
"""

from repro.core.lockrefs import LockRef, Scope
from repro.core.rules import LockingRule, complies

__all__ = ["LockRef", "LockingRule", "Scope", "complies"]
