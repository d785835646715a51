"""The documented locking rules for the five Tab. 4 data structures.

The paper manually converted the kernel's informal comments into
LockDoc's rule notation: 142 rules covering 71 members of ``inode``,
``dentry``, ``journal_t``, ``transaction_t`` and ``journal_head``
(reads and writes counted separately).  This corpus is the analogue for
the simulated kernel — including, deliberately, the real kernel's
documentation pathologies:

* **stale rules** — e.g. ``i_size`` is documented under ``i_lock``
  although the code moved to ``i_rwsem`` + the size seqcount long ago
  (Tab. 5: four ``inode`` rules have zero support),
* **half-followed rules** — the documented lock is only taken on some
  paths (``i_lru``, most ``dentry`` read rules),
* **rules for never-exercised members** — atomics that were converted
  from plain ints without a documentation update (``transaction_t``),
  black-listed wait queues (``journal_t``), giving the #No column.

Each rule carries the (simulated) source location the comment would
live at, mirroring where the paper found them (Sec. 7.3).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.rules import LockingRule
from repro.doc.model import DocumentedRule


def _r(data_type: str, member: str, access: str, rule: str, source: str) -> DocumentedRule:
    return DocumentedRule(
        data_type=data_type,
        member=member,
        access=access,
        rule=LockingRule.parse(rule),
        source=source,
    )


def inode_rules() -> List[DocumentedRule]:
    """14 rules from fs/inode.c + include/linux/fs.h (Tab. 5)."""
    src = "fs/inode.c:10"
    hdr = "include/linux/fs.h:680"
    return [
        # Followed consistently (Tab. 5: correct).
        _r("inode", "i_bytes", "w", "ES(i_lock in inode)", hdr),
        _r("inode", "i_state", "w", "ES(i_lock in inode)", src),
        # Followed on most paths (Tab. 5: ambivalent).
        _r("inode", "i_hash", "w",
           "inode_hash_lock -> ES(i_lock in inode)", src),
        _r("inode", "i_blocks", "w", "ES(i_lock in inode)", hdr),
        _r("inode", "i_lru", "r", "ES(i_lock in inode)", src),
        _r("inode", "i_lru", "w", "ES(i_lock in inode)", src),
        _r("inode", "i_state", "r", "ES(i_lock in inode)", src),
        # Stale — never followed (Tab. 5: incorrect).
        _r("inode", "i_size", "r", "ES(i_lock in inode)", hdr),
        _r("inode", "i_hash", "r",
           "inode_hash_lock -> ES(i_lock in inode)", src),
        _r("inode", "i_blocks", "r", "ES(i_lock in inode)", hdr),
        _r("inode", "i_size", "w", "ES(i_lock in inode)", hdr),
        # Members the benchmark never reaches (Tab. 4: #No).
        _r("inode", "i_acl", "w", "ES(i_lock in inode)", hdr),
        _r("inode", "dirtied_time_when", "w",
           "EO(wb.list_lock in backing_dev_info)", "fs/fs-writeback.c:90"),
        _r("inode", "i_data.page_tree", "w",
           "hardirq -> ES(i_data.tree_lock in inode)", hdr),
    ]


def dentry_rules() -> List[DocumentedRule]:
    """22 rules from include/linux/dcache.h (line 83 ff.) + fs/dcache.c."""
    hdr = "include/linux/dcache.h:83"
    src = "fs/dcache.c:30"
    return [
        # Consistently followed write rules.
        _r("dentry", "d_flags", "w", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_inode", "w", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_hash", "w",
           "rename_lock -> ES(d_lock in dentry)", src),
        _r("dentry", "d_name", "w",
           "rename_lock -> ES(d_lock in dentry)", src),
        _r("dentry", "d_parent", "w",
           "rename_lock -> ES(d_lock in dentry)", src),
        _r("dentry", "d_child", "w",
           "EO(d_lock in dentry) -> ES(d_lock in dentry)", hdr),
        # Half-followed (the RCU-walk fast path skips d_lock).
        _r("dentry", "d_flags", "r", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_parent", "r", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_name", "r", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_inode", "r", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_mounted", "r", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_alias", "r", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_lru", "r",
           "dcache_lru_lock -> ES(d_lock in dentry)", src),
        _r("dentry", "d_lru", "w",
           "dcache_lru_lock -> ES(d_lock in dentry)", src),
        _r("dentry", "d_fsdata", "w", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_subdirs", "r", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_subdirs", "w", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_child", "r", "EO(d_lock in dentry)", hdr),
        _r("dentry", "d_iname", "w", "ES(d_lock in dentry)", hdr),
        _r("dentry", "d_time", "w", "ES(d_lock in dentry)", hdr),
        # Stale.
        _r("dentry", "d_hash", "r", "rename_lock:r", src),
        _r("dentry", "d_sb", "w", "ES(d_lock in dentry)", hdr),
    ]


def journal_rules() -> List[DocumentedRule]:
    """38 rules from include/linux/jbd2.h (around line 795)."""
    hdr = "include/linux/jbd2.h:795"
    state_r = "ES(j_state_lock in journal_t):r"
    state_w = "ES(j_state_lock in journal_t)"
    jlist = "ES(j_list_lock in journal_t)"
    rules = [
        # Correct.
        _r("journal_t", "j_errno", "r", state_r, hdr),
        _r("journal_t", "j_flags", "w", state_w, hdr),
        _r("journal_t", "j_barrier_count", "r", state_r, hdr),
        _r("journal_t", "j_barrier_count", "w", state_w, hdr),
        _r("journal_t", "j_running_transaction", "w", state_w, hdr),
        _r("journal_t", "j_head", "r", state_r, hdr),
        _r("journal_t", "j_head", "w", state_w, hdr),
        _r("journal_t", "j_tail", "r", state_r, hdr),
        _r("journal_t", "j_free", "r", state_r, hdr),
        _r("journal_t", "j_tail_sequence", "r", state_r, hdr),
        _r("journal_t", "j_tail_sequence", "w", state_w, hdr),
        _r("journal_t", "j_transaction_sequence", "r", state_r, hdr),
        _r("journal_t", "j_transaction_sequence", "w", state_w, hdr),
        _r("journal_t", "j_checkpoint_transactions", "r", jlist, hdr),
        _r("journal_t", "j_checkpoint_transactions", "w", jlist, hdr),
        _r("journal_t", "j_revoke", "r",
           "ES(j_checkpoint_mutex in journal_t)", hdr),
        _r("journal_t", "j_wbuf", "w", "ES(j_barrier in journal_t)", hdr),
        # Ambivalent (fast-path readers / tail updates skip the lock).
        _r("journal_t", "j_flags", "r", state_r, hdr),
        _r("journal_t", "j_running_transaction", "r", state_r, hdr),
        _r("journal_t", "j_committing_transaction", "r", state_r, hdr),
        _r("journal_t", "j_commit_sequence", "r", state_r, hdr),
        _r("journal_t", "j_commit_request", "r", state_r, hdr),
        _r("journal_t", "j_tail", "w", state_w, hdr),
        _r("journal_t", "j_free", "w", state_w, hdr),
        _r("journal_t", "j_average_commit_time", "w", state_w, hdr),
        _r("journal_t", "j_committing_transaction", "w", state_w, hdr),
        _r("journal_t", "j_errno", "w", state_w, hdr),
        # Stale.
        _r("journal_t", "j_blocksize", "r", state_r, hdr),
        _r("journal_t", "j_maxlen", "r", state_r, hdr),
        _r("journal_t", "j_last_sync_writer", "w", state_w, hdr),
        # Never observed (wait queues are black-listed, j_failed_commit
        # is never written by the benchmark).
        _r("journal_t", "j_wait_transaction_locked", "w", state_w, hdr),
        _r("journal_t", "j_wait_done_commit", "w", state_w, hdr),
        _r("journal_t", "j_wait_commit", "w", state_w, hdr),
        _r("journal_t", "j_wait_updates", "w", state_w, hdr),
        _r("journal_t", "j_wait_reserved", "w", state_w, hdr),
        _r("journal_t", "j_history", "w",
           "ES(j_history_lock in journal_t)", hdr),
        _r("journal_t", "j_stats", "w",
           "ES(j_history_lock in journal_t)", hdr),
        _r("journal_t", "j_failed_commit", "w", state_w, hdr),
    ]
    return rules


def transaction_rules() -> List[DocumentedRule]:
    """42 rules from include/linux/jbd2.h (around line 543)."""
    hdr = "include/linux/jbd2.h:543"
    state_r = "EO(j_state_lock in journal_t):r"
    state_w = "EO(j_state_lock in journal_t)"
    jlist = "EO(j_list_lock in journal_t)"
    handle = "ES(t_handle_lock in transaction_t)"
    rules = [
        # Correct (the struct is thoroughly and accurately documented).
        _r("transaction_t", "t_state", "r", state_r, hdr),
        _r("transaction_t", "t_state", "w", state_w, hdr),
        _r("transaction_t", "t_log_start", "r", state_r, hdr),
        _r("transaction_t", "t_log_start", "w", state_w, hdr),
        _r("transaction_t", "t_nr_buffers", "r", jlist, hdr),
        _r("transaction_t", "t_nr_buffers", "w", jlist, hdr),
        _r("transaction_t", "t_buffers", "r", jlist, hdr),
        _r("transaction_t", "t_buffers", "w", jlist, hdr),
        _r("transaction_t", "t_forget", "r", jlist, hdr),
        _r("transaction_t", "t_forget", "w", jlist, hdr),
        _r("transaction_t", "t_checkpoint_list", "w", jlist, hdr),
        _r("transaction_t", "t_shadow_list", "r", jlist, hdr),
        _r("transaction_t", "t_shadow_list", "w", jlist, hdr),
        _r("transaction_t", "t_outstanding_credits", "r", handle, hdr),
        _r("transaction_t", "t_outstanding_credits", "w", handle, hdr),
        _r("transaction_t", "t_handle_count", "r", handle, hdr),
        _r("transaction_t", "t_handle_count", "w", handle, hdr),
        _r("transaction_t", "t_tnext", "r", jlist, hdr),
        _r("transaction_t", "t_tnext", "w", jlist, hdr),
        _r("transaction_t", "t_tprev", "r", jlist, hdr),
        _r("transaction_t", "t_tprev", "w", jlist, hdr),
        _r("transaction_t", "t_start", "r", state_r, hdr),
        _r("transaction_t", "t_start", "w", state_w, hdr),
        # Ambivalent (no-lock fast paths).
        _r("transaction_t", "t_expires", "r", state_r, hdr),
        _r("transaction_t", "t_requested", "r", state_r, hdr),
        _r("transaction_t", "t_need_data_flush", "r", state_r, hdr),
        _r("transaction_t", "t_run_state", "r", state_r, hdr),
        # Stale.
        _r("transaction_t", "t_journal", "r", state_r, hdr),
        _r("transaction_t", "t_tid", "r", handle, hdr),
        # Never observed: three members were converted to atomic_t
        # without a documentation update (Sec. 7.3) plus members the
        # benchmark never touches.
        _r("transaction_t", "t_updates", "rw", handle, hdr),
        _r("transaction_t", "t_chp_stats", "rw", jlist, hdr),
        _r("transaction_t", "t_journal", "w", state_w, hdr),
        _r("transaction_t", "t_tid", "w", state_w, hdr),
        _r("transaction_t", "t_start_time", "w", state_w, hdr),
        _r("transaction_t", "t_max_wait", "w", state_w, hdr),
        _r("transaction_t", "t_run_state", "w", state_w, hdr),
        _r("transaction_t", "t_synchronous_commit", "r", state_r, hdr),
        _r("transaction_t", "t_checkpoint_io_list", "r", jlist, hdr),
        _r("transaction_t", "t_log_list", "r", jlist, hdr),
        _r("transaction_t", "t_reserved_list", "r", jlist, hdr),
    ]
    return rules


def journal_head_rules() -> List[DocumentedRule]:
    """26 rules from include/linux/journal-head.h."""
    hdr = "include/linux/journal-head.h:20"
    bstate = "ES(b_state_lock in journal_head)"
    blist = "ES(b_state_lock in journal_head) -> EO(j_list_lock in journal_t)"
    return [
        # Correct.
        _r("journal_head", "b_jcount", "r", bstate, hdr),
        _r("journal_head", "b_jcount", "w", bstate, hdr),
        _r("journal_head", "b_jlist", "w", blist, hdr),
        _r("journal_head", "b_transaction", "w", blist, hdr),
        _r("journal_head", "b_next_transaction", "w", blist, hdr),
        _r("journal_head", "b_tnext", "r", blist, hdr),
        _r("journal_head", "b_tnext", "w", blist, hdr),
        _r("journal_head", "b_tprev", "r", blist, hdr),
        _r("journal_head", "b_tprev", "w", blist, hdr),
        _r("journal_head", "b_modified", "w", bstate, hdr),
        _r("journal_head", "b_cp_transaction", "w", blist, hdr),
        _r("journal_head", "b_cpnext", "w", blist, hdr),
        _r("journal_head", "b_cpprev", "w", blist, hdr),
        # Ambivalent (list membership is often checked with only the
        # bit-lock held).
        _r("journal_head", "b_jlist", "r", blist, hdr),
        _r("journal_head", "b_transaction", "r", blist, hdr),
        _r("journal_head", "b_next_transaction", "r", blist, hdr),
        _r("journal_head", "b_cp_transaction", "r", blist, hdr),
        # Stale: frozen payloads are documented under the bit-lock but
        # read lock-free once stable.
        _r("journal_head", "b_modified", "r", bstate, hdr),
        _r("journal_head", "b_frozen_data", "r", bstate, hdr),
        _r("journal_head", "b_committed_data", "r", bstate, hdr),
        _r("journal_head", "b_triggers", "r", bstate, hdr),
        _r("journal_head", "b_frozen_triggers", "r", bstate, hdr),
        _r("journal_head", "b_bh", "r", bstate, hdr),
        # Never observed.
        _r("journal_head", "b_triggers", "w", bstate, hdr),
        _r("journal_head", "b_frozen_triggers", "w", bstate, hdr),
        _r("journal_head", "b_bh", "w", bstate, hdr),
    ]


#: All documented rules, keyed by data type (the Tab. 4 row order).
CORPUS_BUILDERS = {
    "inode": inode_rules,
    "journal_head": journal_head_rules,
    "transaction_t": transaction_rules,
    "journal_t": journal_rules,
    "dentry": dentry_rules,
}


_CORPUS: Dict[str, Tuple[DocumentedRule, ...]] = {}


def _corpus() -> Dict[str, Tuple[DocumentedRule, ...]]:
    """Every builder's rules, built and parsed once per process (the
    rules are frozen, so sharing them is safe)."""
    if not _CORPUS:
        for data_type, builder in CORPUS_BUILDERS.items():
            _CORPUS[data_type] = tuple(builder())
    return _CORPUS


def documented_rules(data_type: str = "") -> List[DocumentedRule]:
    """The documented-rule corpus; optionally for one data type.

    A fresh list on every call, of shared rules."""
    corpus = _corpus()
    if data_type:
        return list(corpus[data_type])
    return [rule for rules in corpus.values() for rule in rules]


def corpus_counts() -> Dict[str, int]:
    """Number of expanded rules per type (the Tab. 4 #R column)."""
    return {
        data_type: sum(len(rule.expand()) for rule in rules)
        for data_type, rules in _corpus().items()
    }
