"""Ground-truth locking rules for the 11 observed data types.

This module is the simulated kernel's *actual* locking discipline: the
operation engine synthesizes kernel functions from it, and the
experiments compare LockDoc's mined rules against it.  Three kinds of
knobs calibrate the evaluation shapes of Tab. 4–8:

* ``read``/``write`` rules — which locks legitimate code takes,
* ``read_skip``/``write_skip`` — the injected deviation (bug) rates;
  kept below the 10 % accept-threshold complement so true rules still
  win, with their deviating accesses surfacing as rule violations,
* ``read_weight``/``write_weight`` — runtime exercise rates; a weight
  of 0 means the benchmark never performs that access (e.g. identity
  members are only written during initialization), which is what keeps
  the per-type rule counts (#Rules of Tab. 6) realistic.

Naming of global locks matches the kernel: ``inode_hash_lock``,
``bdev_lock``, ``cdev_lock``, ``sb_lock``, ``rename_lock``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.db.filters import FilterConfig
from repro.kernel.vfs.spec import LockTok, MemberSpec, TypeSpec, global_lock_tokens

ES = LockTok.es
VIA = LockTok.via_
RCU = LockTok.rcu

#: Global (static) locks the VFS model uses: name -> lock class.
GLOBAL_LOCKS: Dict[str, str] = {
    "inode_hash_lock": "spinlock_t",
    "inode_lru_lock": "spinlock_t",
    "bdev_lock": "spinlock_t",
    "cdev_lock": "spinlock_t",
    "sb_lock": "spinlock_t",
    "rename_lock": "seqlock_t",
    "dcache_lru_lock": "spinlock_t",
    "bdi_lock": "spinlock_t",
    "pipe_user_lock": "spinlock_t",
}

GLOBAL = global_lock_tokens(GLOBAL_LOCKS)

#: Functions whose dynamic extent is object construction/teardown.
INIT_TEARDOWN_FUNCTIONS = {
    "inode_init_always",
    "alloc_inode",
    "destroy_inode",
    "i_callback",
    "d_alloc",
    "dentry_free",
    "alloc_super",
    "destroy_super",
    "bdev_alloc",
    "bdev_free",
    "alloc_buffer_head",
    "free_buffer_head",
    "cdev_alloc",
    "cdev_default_release",
    "bdi_alloc",
    "bdi_put_final",
    "alloc_pipe_info",
    "free_pipe_info",
    "journal_init_common",
    "jbd2_journal_destroy",
    "jbd2_journal_init_transaction",
    "jbd2_journal_free_transaction",
    "journal_alloc_journal_head",
    "journal_free_journal_head",
}

#: Globally ignored helper functions (atomic ops & friends, Sec. 5.3).
GLOBAL_FUNCTION_BLACKLIST = {
    "atomic_inc",
    "atomic_dec",
    "atomic_read",
    "atomic_set",
    "atomic_add",
    "atomic_sub",
    "atomic_cmpxchg",
    "refcount_inc",
    "refcount_dec_and_test",
}

#: Member black list ((type, member) pairs; Sec. 5.3 item 3).
MEMBER_BLACKLIST = {
    ("inode", "i_data.page_tree"),
    ("super_block", "s_writers"),
    ("block_device", "bd_holder_disks"),
    ("journal_t", "j_wait_transaction_locked"),
    ("journal_t", "j_wait_done_commit"),
    ("journal_t", "j_wait_commit"),
    ("journal_t", "j_wait_updates"),
    ("journal_t", "j_wait_reserved"),
    ("journal_t", "j_history"),
    ("journal_t", "j_history_max"),
    ("journal_t", "j_history_cur"),
    ("journal_t", "j_stats"),
    ("pipe_inode_info", "wait"),
    ("backing_dev_info", "laptop_mode_wb_timer"),
}

#: Inode subclasses whose code is allowed to deviate (others are clean,
#: giving the zero-violation rows of Tab. 7).
DEVIANT_SUBCLASSES = {"ext4", "rootfs", "tmpfs", "sysfs", "devtmpfs", "bdev"}


def _m(
    member: str,
    read: Tuple[LockTok, ...] = (),
    write: Tuple[LockTok, ...] = (),
    group: str = "",
    weight: float = 1.0,
    rw: float = None,  # type: ignore[assignment]  # read_weight override
    ww: float = None,  # type: ignore[assignment]  # write_weight override
    read_skip: float = 0.0,
    write_skip: float = 0.0,
    lockfree_alt: float = 0.0,
) -> MemberSpec:
    return MemberSpec(
        member=member,
        read=read,
        write=write,
        read_skip=read_skip,
        write_skip=write_skip,
        weight=weight,
        read_weight=rw,
        write_weight=ww,
        group=group,
        lockfree_alt=lockfree_alt,
    )


# ----------------------------------------------------------------------
# struct inode
# ----------------------------------------------------------------------


def build_inode_spec() -> TypeSpec:
    """Ground truth for ``struct inode`` (the paper's flagship example).

    Highlights, matching the paper's findings:

    * ``i_state``/``i_bytes`` writes under ``ES(i_lock)`` — fully
      followed (Tab. 5: correct); ``i_state`` *reads* mostly skip the
      lock (Tab. 5: ``s_r = 19.78 %``).
    * ``i_blocks`` writes under ``ES(i_lock)`` with a small deviation
      (Tab. 5: 93.56 %); reads are lock-free (documented rule fails).
    * ``i_size`` is protected by ``i_rwsem`` + the seqcount — *not* by
      ``i_lock`` as the stale documentation claims (Tab. 5: 0 %).
    * ``i_hash`` takes ``inode_hash_lock -> ES(i_lock)``; the
      hand-written ``__remove_inode_hash`` also writes the list
      *neighbours*' ``i_hash`` while holding only the hash lock plus a
      foreign ``i_lock`` (the Sec. 7.4 mystery / Tab. 8 first row).
    * ``i_op``/``i_fop``/... are written under the *parent directory's*
      ``i_rwsem`` — an EO rule (Fig. 8).
    """
    t = [
        # -- owner/mode: the inode's own i_rwsem.
        _m("i_mode", write=(ES("i_rwsem"),), group="owner", weight=3.0),
        _m("i_uid", write=(ES("i_rwsem"),), group="owner", weight=3.0),
        _m("i_gid", write=(ES("i_rwsem"),), group="owner", weight=3.0),
        # i_flags: the confirmed kernel bug — a cmpxchg path updates it
        # without i_rwsem (inode_set_flags, Fig. 3).
        _m("i_flags", write=(ES("i_rwsem"),), group="owner", weight=3.0,
           write_skip=0.05),
        _m("i_opflags", weight=0.5, rw=0, ww=0),
        # -- timestamps: i_rwsem on write, lock-free reads.
        _m("i_atime", write=(ES("i_rwsem"),), group="times", weight=4.0),
        _m("i_mtime", write=(ES("i_rwsem"),), group="times", weight=4.0),
        _m("i_ctime", write=(ES("i_rwsem"),), group="times", weight=4.0),
        _m("i_version", write=(ES("i_rwsem"),), group="times", weight=2.0),
        # -- i_state: i_lock for writes; reads usually skip the lock.
        _m("i_state", read=(ES("i_lock"),), write=(ES("i_lock"),),
           group="state", weight=6.0, lockfree_alt=0.82),
        # -- accounting: i_lock; i_blocks writes deviate a little,
        #    reads are lock-free by design (documented rule says i_lock).
        _m("i_bytes", write=(ES("i_lock"),), group="bytes", weight=4.0),
        _m("i_blocks", write=(ES("i_lock"),), group="bytes",
           weight=4.0, write_skip=0.065),
        _m("i_blkbits", weight=0.5, ww=0),
        # -- i_size: i_rwsem + seqcount write side; seqcount reads.
        _m("i_size", read=(ES("i_size_seqcount", mode="r"),),
           write=(ES("i_rwsem"), ES("i_size_seqcount")),
           group="size", weight=5.0, read_skip=0.35),
        # -- hash chain: global hash lock, then own i_lock (inserts).
        _m("i_hash", read=(GLOBAL("inode_hash_lock"),),
           write=(GLOBAL("inode_hash_lock"), ES("i_lock")),
           group="hash", weight=8.0),
        # -- LRU: two legitimate paths (hand-written), global lru lock.
        _m("i_lru", read=(GLOBAL("inode_lru_lock"),),
           write=(GLOBAL("inode_lru_lock"),), group="lru", weight=0.2),
        # -- writeback lists: the bdi's wb.list_lock (EO rule, Fig. 8).
        _m("dirtied_when", write=(VIA("i_bdi", "wb.list_lock"),),
           group="wb", weight=2.0, rw=0),
        _m("dirtied_time_when", weight=1.0, rw=0, ww=0),
        _m("i_io_list", read=(VIA("i_bdi", "wb.list_lock"),),
           write=(VIA("i_bdi", "wb.list_lock"),), group="wb", weight=2.0),
        _m("i_wb", weight=1.0, rw=0, ww=0),
        _m("i_wb_frn_winner", weight=0.5, rw=0, ww=0),
        _m("i_wb_frn_avg_time", weight=0.5, rw=0, ww=0),
        _m("i_wb_frn_history", weight=0.5, rw=0, ww=0),
        # -- superblock lists.
        _m("i_sb_list", read=(VIA("i_sb", "s_inode_list_lock"),),
           write=(VIA("i_sb", "s_inode_list_lock"),), group="sblist", weight=2.0),
        _m("i_wb_list", read=(VIA("i_sb", "s_inode_wblist_lock"),),
           write=(VIA("i_sb", "s_inode_wblist_lock"),), group="wblist", weight=1.0),
        # -- ops tables: written under the parent dir's i_rwsem (EO).
        _m("i_op", write=(VIA("i_dir", "i_rwsem"),), group="ops", weight=2.0),
        _m("i_fop", write=(VIA("i_dir", "i_rwsem"),), group="ops", weight=2.0),
        _m("i_link", write=(VIA("i_dir", "i_rwsem"),), group="ops", weight=1.0),
        _m("i_acl", weight=1.0, rw=0, ww=0),
        _m("i_default_acl", weight=1.0, rw=0, ww=0),
        _m("i_private", write=(VIA("i_dir", "i_rwsem"),), group="ops", weight=1.0),
        # -- identity, immutable after init: lock-free reads only.
        _m("i_ino", weight=2.0, ww=0),
        _m("i_sb", weight=2.0, ww=0),
        _m("i_mapping", weight=1.0, ww=0),
        _m("i_rdev", weight=0.8, ww=0),
        _m("i_generation", weight=0.8, ww=0),
        _m("i_security", weight=0.8, ww=0),
        _m("i_nlink", write=(ES("i_rwsem"),), group="owner", weight=1.5),
        _m("i_flctx", weight=0.5, ww=0),
        _m("i_dir_seq", weight=0.5, group="misc"),  # lock-free r+w
        _m("i_fsnotify_mask", weight=0.5, ww=0),
        _m("i_fsnotify_marks", weight=0.5, rw=0, ww=0),
        # -- union-unrolled payload pointers: read-only after init here.
        _m("i_pipe", weight=0.7, rw=0, ww=0),
        _m("i_bdev", weight=0.7, rw=0, ww=0),
        _m("i_cdev", weight=0.7, rw=0, ww=0),
        # -- atomics: traced but filtered (Sec. 5.3).
        _m("i_count", group="refs", weight=1.0),
        _m("i_dio_count", weight=0.3),
        _m("i_writecount", weight=0.3),
        _m("i_readcount", weight=0.3),
        # -- i_data (address_space) members.
        _m("i_data.host", weight=1.0, ww=0),
        _m("i_data.page_tree", write=(ES("i_data.tree_lock", flavor="irq"),),
           group="pagecache", weight=2.0),  # blacklisted member
        _m("i_data.nrpages", read=(ES("i_data.tree_lock", flavor="irq"),),
           write=(ES("i_data.tree_lock", flavor="irq"),),
           group="pagecache", weight=2.0),
        _m("i_data.nrexceptional", write=(ES("i_data.tree_lock", flavor="irq"),),
           group="pagecache", weight=1.0, rw=0),
        _m("i_data.writeback_index", write=(VIA("i_sb", "s_umount", mode="r"),),
           group="wbindex", weight=1.0, rw=0),
        _m("i_data.a_ops", weight=1.0, ww=0),
        _m("i_data.flags", weight=0.8, group="misc"),  # lock-free r+w
        _m("i_data.gfp_mask", weight=0.8, group="misc"),  # lock-free r+w
        _m("i_data.private_data", weight=1.0, rw=0, ww=0),
        _m("i_data.private_list", read=(ES("i_data.private_lock"),),
           write=(ES("i_data.private_lock"),), group="private", weight=1.0),
        _m("i_data.assoc_mapping", weight=0.7, rw=0, ww=0),
        _m("i_data.i_mmap", read=(ES("i_data.i_mmap_rwsem", mode="r"),),
           write=(ES("i_data.i_mmap_rwsem"),), group="mmap", weight=1.0),
        _m("i_data.i_mmap_writable", weight=0.5, rw=0, ww=0),
        _m("i_data.wb_err", weight=0.5, group="misc"),  # lock-free r+w
        _m("i_data.nr_thps", weight=0.3, rw=0, ww=0),
        _m("i_data.mmap_base", weight=0.4, rw=0, ww=0),
    ]
    return TypeSpec(
        name="inode",
        members=t,
        ref_types={
            "i_dir": "inode",
            "i_sb": "super_block",
            "i_bdi": "backing_dev_info",
        },
        blacklist=("i_data.page_tree",),
        subclass_profiles=_inode_subclass_profiles(),
    )


def _inode_subclass_profiles() -> Dict[str, Dict[str, float]]:
    """Per-filesystem exercise profiles for inode op groups.

    Realizes the coverage differences of Tab. 6 (ext4 exercises nearly
    everything, debugfs barely anything, proc/sockfs are read-mostly)
    and the per-subclass violation pattern of Tab. 7 via ``_skips``
    (anon_inodefs/debugfs/pipefs/proc/sockfs are deviation-free).
    """
    return {
        "ext4": {"_default": 1.0, "_reads": 1.0, "_writes": 1.0, "_skips": 1.0,
                 "_rate": 1.0},
        "tmpfs": {"_default": 0.85, "wb": 0.4, "wbindex": 0.3,
                  "_reads": 1.0, "_writes": 0.75, "_skips": 0.5, "_rate": 0.9},
        "rootfs": {"_default": 0.85, "pagecache": 0.6,
                   "_reads": 1.0, "_writes": 0.7, "_skips": 1.0, "_rate": 0.9},
        "devtmpfs": {"_default": 0.65, "mmap": 0.0, "private": 0.4,
                     "_reads": 0.9, "_writes": 0.4, "_skips": 0.35, "_rate": 0.55},
        "bdev": {"_default": 0.55, "ops": 0.25, "wb": 0.6,
                 "_reads": 0.7, "_writes": 0.35, "_skips": 0.1, "_rate": 0.3},
        "sysfs": {"_default": 0.55, "pagecache": 0.0, "private": 0.0, "wb": 0.15,
                  "_reads": 0.9, "_writes": 0.2, "_skips": 0.8, "_rate": 0.5},
        "proc": {"_default": 0.5, "pagecache": 0.0, "wb": 0.0, "private": 0.0,
                 "size": 0.35, "_reads": 1.0, "_writes": 0.05, "_skips": 0.0,
                 "_rate": 0.5},
        "pipefs": {"_default": 0.45, "pagecache": 0.0, "wb": 0.0, "ops": 0.0,
                   "private": 0.0, "_reads": 0.9, "_writes": 0.035, "_skips": 0.0,
                   "_rate": 0.4},
        "sockfs": {"_default": 0.3, "pagecache": 0.0, "wb": 0.0, "ops": 0.0,
                   "private": 0.0, "mmap": 0.0,
                   "_reads": 0.6, "_writes": 0.012, "_skips": 0.0, "_rate": 0.15},
        "anon_inodefs": {"_default": 0.18, "pagecache": 0.0, "wb": 0.0, "ops": 0.0,
                         "private": 0.0, "mmap": 0.0,
                         "_reads": 0.4, "_writes": 0.012, "_skips": 0.0,
                         "_rate": 0.055},
        "debugfs": {"_default": 0.0, "state": 1.0,
                    "_reads": 0.0, "_writes": 1.0, "_skips": 0.0, "_rate": 0.012},
    }


# ----------------------------------------------------------------------
# struct dentry
# ----------------------------------------------------------------------


def build_dentry_spec() -> TypeSpec:
    """Ground truth for ``struct dentry``.

    ``d_lock`` protects mutable state; the global ``rename_lock``
    seqlock guards tree-topology changes; LRU members use the global
    ``dcache_lru_lock``.  Many members have both locked and RCU-walk
    lock-free read paths, which makes most documented read rules
    ambivalent (Tab. 4: dentry has the highest ambivalence, 63.64 %).
    ``d_subdirs`` is additionally traversed under the parent inode's
    ``i_rwsem`` plus RCU (Tab. 8's third example).
    """
    t = [
        _m("d_flags", read=(ES("d_lock"),), write=(ES("d_lock"),),
           group="flags", weight=4.0, read_skip=0.55),
        _m("d_hash", read=(RCU(),),
           write=(GLOBAL("rename_lock"), ES("d_lock")),
           group="rehash", weight=2.0),
        _m("d_parent", read=(ES("d_lock"),),
           write=(GLOBAL("rename_lock"), ES("d_lock")),
           group="rehash", weight=2.5, read_skip=0.5),
        _m("d_name", read=(ES("d_lock"),),
           write=(GLOBAL("rename_lock"), ES("d_lock")),
           group="rehash", weight=3.0, read_skip=0.45),
        _m("d_inode", read=(ES("d_lock"),), write=(ES("d_lock"), ES("d_seq")),
           group="inode", weight=4.0, read_skip=0.6),
        _m("d_iname", write=(ES("d_lock"),), group="inode", weight=4.0,
           write_skip=0.08),
        _m("d_count", group="refs", weight=2.0),  # atomic -> filtered
        _m("d_op", weight=1.0, group="misc"),  # lock-free r+w
        _m("d_sb", weight=1.5, group="misc"),  # lock-free r+w
        _m("d_time", write=(ES("d_lock"),), group="flags", weight=3.0,
           write_skip=0.08),
        _m("d_fsdata", read=(ES("d_lock"),), write=(ES("d_lock"),),
           group="flags", weight=2.5, rw=0, write_skip=0.08),
        _m("d_lru", read=(GLOBAL("dcache_lru_lock"),),
           write=(GLOBAL("dcache_lru_lock"), ES("d_lock")),
           group="lru", weight=3.5, write_skip=0.06),
        _m("d_child", read=(VIA("d_parent", "d_lock"),),
           write=(VIA("d_parent", "d_lock"), ES("d_lock")),
           group="tree", weight=3.0),
        _m("d_subdirs", read=(ES("d_lock"),), write=(ES("d_lock"),),
           group="subdirs", weight=8.0, write_skip=0.06),
        _m("d_alias", read=(ES("d_lock"),), write=(ES("d_lock"),),
           group="inode", weight=1.5, lockfree_alt=0.3),
        _m("d_rcu", weight=0.3, group="misc"),  # lock-free r+w
        _m("d_mounted", read=(ES("d_lock"),), write=(ES("d_lock"),),
           group="flags", weight=0.8, read_skip=0.4),
        _m("d_cookie", weight=0.3, group="misc"),  # lock-free r+w
        _m("d_bucket", read=(RCU(),),
           write=(GLOBAL("rename_lock"), ES("d_lock")),
           group="rehash", weight=0.5),
        _m("d_genocide_count", weight=0.4, rw=0, ww=0),
        _m("d_wait", weight=0.3, group="misc"),  # lock-free r+w
    ]
    return TypeSpec(
        name="dentry",
        members=t,
        ref_types={"d_parent": "dentry", "d_inode": "inode", "d_sb": "super_block"},
        blacklist=(),
    )


# ----------------------------------------------------------------------
# struct super_block
# ----------------------------------------------------------------------


def build_super_block_spec() -> TypeSpec:
    """``struct super_block``: ``s_umount`` for mount state, the global
    ``sb_lock`` for the super list, per-list spinlocks for inode lists.
    Almost everything else is set at mount time and only read by the
    benchmark (paper: only 8 write rules, Tab. 6)."""
    t = [
        _m("s_list", read=(GLOBAL("sb_lock"),), write=(GLOBAL("sb_lock"),),
           group="sblist", weight=1.5),
        _m("s_dev", weight=1.0, ww=0),
        _m("s_blocksize", weight=1.5, ww=0),
        _m("s_blocksize_bits", weight=1.0, ww=0),
        _m("s_dirt", read=(ES("s_umount", mode="r"),), write=(ES("s_umount"),),
           group="mount", weight=1.5, write_skip=0.06),
        _m("s_maxbytes", weight=1.0, ww=0),
        _m("s_type", weight=1.0, ww=0),
        _m("s_op", weight=1.5, ww=0),
        _m("dq_op", weight=0.4, ww=0),
        _m("s_qcop", weight=0.4, ww=0),
        _m("s_export_op", weight=0.4, ww=0),
        _m("s_flags", read=(ES("s_umount", mode="r"),), write=(ES("s_umount"),),
           group="mount", weight=2.5, read_skip=0.08),
        _m("s_iflags", read=(ES("s_umount", mode="r"),), group="mount",
           weight=1.0, ww=0),
        _m("s_magic", weight=1.0, ww=0),
        _m("s_root", read=(ES("s_umount", mode="r"),), group="mount",
           weight=1.5, ww=0),
        _m("s_count", read=(GLOBAL("sb_lock"),), write=(GLOBAL("sb_lock"),),
           group="sblist", weight=1.5),
        _m("s_active", group="refs", weight=1.0),  # atomic
        _m("s_security", weight=0.4, rw=0, ww=0),
        _m("s_xattr", weight=0.4, ww=0),
        _m("s_inodes", read=(ES("s_inode_list_lock"),),
           write=(ES("s_inode_list_lock"),), group="inodes", weight=3.0),
        _m("s_inodes_wb", read=(ES("s_inode_wblist_lock"),),
           write=(ES("s_inode_wblist_lock"),), group="wb", weight=1.5,
           write_skip=0.02),
        _m("s_mounts", read=(GLOBAL("sb_lock"),), group="sblist",
           weight=1.0, ww=0),
        _m("s_bdev", weight=1.0, ww=0),
        _m("s_bdi", weight=1.0, ww=0),
        _m("s_mtd", weight=0.2, rw=0, ww=0),
        _m("s_instances", read=(GLOBAL("sb_lock"),), group="sblist",
           weight=0.7, ww=0),
        _m("s_quota_types", weight=0.3, rw=0, ww=0),
        _m("s_dquot", weight=0.3, rw=0, ww=0),
        _m("s_writers", group="mount", weight=0.5),  # blacklisted member
        _m("s_id", weight=1.0, ww=0),
        _m("s_uuid", weight=0.6, ww=0),
        _m("s_fs_info", weight=1.2, ww=0),
        _m("s_max_links", weight=0.5, ww=0),
        _m("s_mode", weight=0.6, ww=0),
        _m("s_time_gran", weight=0.6, ww=0),
        _m("s_subtype", weight=0.3, rw=0, ww=0),
        _m("s_shrink", weight=0.3, rw=0, ww=0),
        _m("s_remove_count", weight=0.4),  # atomic
        _m("s_readonly_remount", read=(ES("s_umount", mode="r"),),
           write=(ES("s_umount"),), group="mount", weight=0.8, write_skip=0.03),
        _m("s_dio_done_wq", weight=0.3, rw=0, ww=0),
        _m("s_pins", weight=0.3, rw=0, ww=0),
        _m("s_user_ns", weight=0.4, ww=0),
        _m("s_inode_lru", read=(GLOBAL("inode_lru_lock"),),
           group="lru", weight=1.2, ww=0),
        _m("s_dentry_lru", read=(GLOBAL("dcache_lru_lock"),),
           group="lru", weight=1.2, ww=0),
        _m("s_mount_opts", weight=0.4, ww=0),
        _m("s_d_op", weight=0.4, ww=0),
        _m("s_cleancache_poolid", weight=0.2, rw=0, ww=0),
        _m("s_stack_depth", weight=0.2, rw=0, ww=0),
        _m("s_fsnotify_mask", weight=0.3, rw=0, ww=0),
        _m("s_fsnotify_marks", weight=0.3, rw=0, ww=0),
        _m("s_time_min", weight=0.3, ww=0),
        _m("s_time_max", weight=0.3, ww=0),
        _m("s_wb_err", weight=0.5, group="misc"),  # lock-free r+w
        _m("s_lsi", weight=0.2, rw=0, ww=0),
        _m("s_sync_count", weight=0.6, group="misc"),  # lock-free r+w
        _m("s_pflags", weight=0.3, rw=0, ww=0),
    ]
    return TypeSpec(
        name="super_block",
        members=t,
        ref_types={},
        blacklist=("s_writers",),
    )


# ----------------------------------------------------------------------
# struct block_device / struct cdev
# ----------------------------------------------------------------------


def build_block_device_spec() -> TypeSpec:
    """``struct block_device``: ``bd_mutex`` for open/close state,
    global ``bdev_lock`` for claiming.  One rare unlocked write of
    ``bd_write_holder`` gives the single violating event of Tab. 7."""
    t = [
        _m("bd_dev", weight=1.0, group="misc"),  # lock-free r+w
        _m("bd_openers", read=(ES("bd_mutex"),), write=(ES("bd_mutex"),),
           group="open", weight=2.5),
        _m("bd_inode", weight=1.0, ww=0),
        _m("bd_super", write=(ES("bd_mutex"),), group="open", weight=0.8, rw=0),
        _m("bd_claiming", read=(GLOBAL("bdev_lock"),),
           write=(GLOBAL("bdev_lock"),), group="claim", weight=1.5),
        _m("bd_holder", read=(GLOBAL("bdev_lock"),),
           write=(GLOBAL("bdev_lock"),), group="claim", weight=1.5),
        _m("bd_holders", group="claim", weight=1.0),  # atomic
        _m("bd_write_holder", write=(GLOBAL("bdev_lock"),), group="claim",
           weight=0.6, rw=0, write_skip=0.008),
        _m("bd_holder_disks", group="claim", weight=0.4),  # blacklisted
        _m("bd_contains", write=(ES("bd_mutex"),), group="open", weight=0.8, rw=0),
        _m("bd_block_size", read=(ES("bd_mutex"),), write=(ES("bd_mutex"),),
           group="open", weight=1.5),
        _m("bd_partno", weight=0.8, group="misc"),  # lock-free r+w
        _m("bd_part", write=(ES("bd_mutex"),), group="open", weight=1.0, rw=0),
        _m("bd_part_count", read=(ES("bd_mutex"),), group="open", weight=1.0,
           ww=0),
        _m("bd_invalidated", weight=1.0, rw=0, ww=0),
        _m("bd_disk", weight=1.0, group="misc"),  # lock-free r+w
        _m("bd_queue", weight=0.8, group="misc"),  # lock-free r+w
        _m("bd_bdi", weight=0.8, group="misc"),  # lock-free r+w
        _m("bd_list", read=(GLOBAL("bdev_lock"),), group="claim",
           weight=1.0, ww=0),
        _m("bd_private", weight=0.5, rw=0, group="misc"),  # lock-free w
        _m("bd_fsfreeze_count", read=(ES("bd_fsfreeze_mutex"),),
           write=(ES("bd_fsfreeze_mutex"),), group="freeze", weight=0.8),
    ]
    return TypeSpec(
        name="block_device",
        members=t,
        ref_types={"bd_bdi": "backing_dev_info"},
        blacklist=("bd_holder_disks",),
    )


def build_cdev_spec() -> TypeSpec:
    """``struct cdev``: list membership and registration count under the
    global cdev_lock; the rest is effectively immutable registration
    data.  Deliberately clean — zero violations in Tab. 7."""
    t = [
        _m("kobj", weight=0.8, rw=0, group="misc"),  # lock-free w
        _m("owner", weight=0.8, rw=0, group="misc"),  # lock-free w
        _m("ops", weight=1.0, group="misc"),  # lock-free r+w
        _m("list", read=(GLOBAL("cdev_lock"),), write=(GLOBAL("cdev_lock"),),
           group="reg", weight=1.5, rw=0),
        _m("dev", weight=1.0, group="misc"),  # lock-free r+w
        _m("count", write=(GLOBAL("cdev_lock"),), group="reg", weight=1.0, rw=0),
    ]
    return TypeSpec(name="cdev", members=t, ref_types={}, blacklist=())


# ----------------------------------------------------------------------
# struct buffer_head
# ----------------------------------------------------------------------


def build_buffer_head_spec() -> TypeSpec:
    """``struct buffer_head``: the violation fountain (Tab. 7).

    The uptodate bit-lock (modelled as ``b_uptodate_lock``) must be
    taken with irqs disabled because IO completion runs in softirq
    context.  Hot paths touch ``b_state``/``b_end_io``/``b_private``
    without it at rates just below the accept threshold, so the true
    rule still wins — and every hot-path access is flagged.
    """
    irq_lock = (ES("b_uptodate_lock", flavor="irq"),)
    t = [
        _m("b_state", read=irq_lock, write=irq_lock, group="state",
           weight=8.0, read_skip=0.045, write_skip=0.04),
        _m("b_this_page", weight=2.0, group="misc"),  # lock-free r+w
        _m("b_page", weight=2.0, rw=0, group="misc"),  # lock-free w
        _m("b_blocknr", weight=2.0, ww=0),
        _m("b_size", weight=2.0, ww=0),
        _m("b_data", weight=2.5, group="misc"),  # lock-free r+w
        _m("b_bdev", weight=1.5, group="misc"),  # lock-free r+w
        _m("b_end_io", read=(), write=irq_lock, group="io", weight=3.0,
           write_skip=0.04),
        _m("b_private", write=irq_lock, group="io", weight=2.0, rw=0,
           write_skip=0.035),
        _m("b_assoc_buffers", read=(VIA("b_assoc_map", "i_data.private_lock"),),
           write=(VIA("b_assoc_map", "i_data.private_lock"),),
           group="assoc", weight=1.0, read_skip=0.04),
        _m("b_assoc_map", write=(VIA("b_assoc_map", "i_data.private_lock"),),
           group="assoc", weight=0.8, rw=0),
        _m("b_count", read=(), write=irq_lock, group="state", weight=4.0,
           write_skip=0.035),
        _m("b_maybe_boundary", weight=0.8, rw=0, ww=0),
    ]
    return TypeSpec(
        name="buffer_head",
        members=t,
        ref_types={"b_assoc_map": "inode"},
        blacklist=(),
    )


# ----------------------------------------------------------------------
# struct backing_dev_info
# ----------------------------------------------------------------------


def build_bdi_spec() -> TypeSpec:
    """``struct backing_dev_info``: ``wb.list_lock`` for writeback
    lists and bandwidth accounting, ``wb.work_lock`` for the work
    queue, global ``bdi_lock`` for the bdi list.  The four bandwidth
    members are occasionally updated racily (Tab. 7: 267 events over
    4 members)."""
    wb_list = (ES("wb.list_lock"),)
    wb_work = (ES("wb.work_lock"),)
    t = [
        _m("bdi_list", read=(GLOBAL("bdi_lock"),), group="reg", weight=1.2,
           ww=0),
        _m("ra_pages", weight=1.5, group="misc"),  # lock-free r+w
        _m("io_pages", weight=1.0, ww=0),
        _m("dev", weight=0.8, ww=0),
        _m("name", weight=0.8, ww=0),
        _m("owner", weight=0.6, rw=0, ww=0),
        _m("min_ratio", weight=0.6, ww=0),
        _m("max_ratio", weight=0.6, ww=0),
        _m("bw_time_stamp", read=wb_list, write=wb_list, group="bw",
           weight=2.0, write_skip=0.05),
        _m("written_stamp", write=wb_list, group="bw", weight=2.0, rw=0,
           write_skip=0.05),
        _m("write_bandwidth", read=wb_list, write=wb_list, group="bw",
           weight=2.0, write_skip=0.06),
        _m("avg_write_bandwidth", write=wb_list, group="bw", weight=2.0, rw=0,
           write_skip=0.04),
        _m("dirty_ratelimit", read=wb_list, write=wb_list, group="bw", weight=1.5),
        _m("balanced_dirty_ratelimit", write=wb_list, group="bw",
           weight=1.5, rw=0),
        _m("completions", weight=1.0, ww=0),
        _m("dirty_exceeded", weight=1.0, ww=0),
        _m("min_prop_frac", weight=0.5, rw=0, ww=0),
        _m("max_prop_frac", weight=0.5, rw=0, ww=0),
        _m("usage_cnt", weight=0.8),  # atomic
        _m("capabilities", weight=0.8, ww=0),
        _m("congested", weight=1.0, group="misc"),  # lock-free r+w
        _m("wb_waitq", weight=0.4, rw=0, ww=0),
        _m("dev_name", weight=0.4, ww=0),
        _m("laptop_mode_wb_timer", weight=0.3),  # blacklisted
        _m("wb.state", read=wb_list, write=wb_list, group="wblists",
           weight=2.0, read_skip=0.04),
        _m("wb.last_old_flush", read=wb_list, write=wb_list, group="wblists",
           weight=1.0),
        _m("wb.b_dirty", read=wb_list, write=wb_list, group="wblists", weight=2.5),
        _m("wb.b_io", read=wb_list, write=wb_list, group="wblists", weight=2.0),
        _m("wb.b_more_io", read=wb_list, write=wb_list, group="wblists", weight=1.5),
        _m("wb.b_dirty_time", read=wb_list, write=wb_list, group="wblists",
           weight=1.0),
        _m("wb.bandwidth", write=wb_list, group="bw", weight=1.0, rw=0),
        _m("wb.avg_write_bandwidth", write=wb_list, group="bw", weight=1.0, rw=0),
        _m("wb.balanced_dirty_ratelimit", write=wb_list, group="bw",
           weight=1.0, rw=0),
        _m("wb.completions", weight=0.8, rw=0, ww=0),
        _m("wb.dirty_exceeded", weight=0.8, rw=0, ww=0),
        _m("wb.start_all_reason", write=wb_work, group="work", weight=1.0, rw=0),
        _m("wb.refcnt", weight=0.6),  # atomic
        _m("wb.work_list", read=wb_work, write=wb_work, group="work", weight=1.5),
        _m("wb.dwork", write=wb_work, group="work", weight=1.0, rw=0),
        _m("wb.last_comp", weight=0.5, group="misc"),  # lock-free r+w
        _m("wb.memcg_css", weight=0.4, rw=0, ww=0),
        _m("wb.blkcg_css", weight=0.4, rw=0, ww=0),
        _m("wb.congested_data", weight=0.4, rw=0, ww=0),
    ]
    return TypeSpec(
        name="backing_dev_info",
        members=t,
        ref_types={},
        blacklist=("laptop_mode_wb_timer",),
    )


# ----------------------------------------------------------------------
# struct pipe_inode_info
# ----------------------------------------------------------------------


def build_pipe_spec() -> TypeSpec:
    """``struct pipe_inode_info``: one big mutex, taken by both ends;
    the poll fast path peeks at counters without it (Tab. 7: 9 events,
    3 members)."""
    mx = (ES("mutex"),)
    t = [
        _m("nrbufs", read=mx, write=mx, group="ring", weight=4.0,
           read_skip=0.002),
        _m("curbuf", read=mx, write=mx, group="ring", weight=4.0),
        _m("buffers", read=mx, group="ring", weight=2.0, ww=0),
        _m("readers", read=mx, write=mx, group="ends", weight=2.0,
           read_skip=0.002),
        _m("writers", read=mx, write=mx, group="ends", weight=2.0,
           read_skip=0.002),
        _m("files", group="ends", weight=1.0),  # atomic
        _m("waiting_writers", read=mx, write=mx, group="ends", weight=1.5),
        _m("r_counter", read=mx, write=mx, group="counters", weight=1.0),
        _m("w_counter", read=mx, write=mx, group="counters", weight=1.0),
        _m("fasync_readers", weight=0.6, ww=0),
        _m("fasync_writers", weight=0.6, ww=0),
        _m("bufs", read=mx, write=mx, group="ring", weight=3.0),
        _m("user", weight=0.6, ww=0),
        _m("tmp_page", write=mx, group="ring", weight=1.0, rw=0),
        _m("wait", weight=0.4, ww=0),  # blacklisted
        _m("max_usage", weight=0.6, ww=0),
    ]
    return TypeSpec(
        name="pipe_inode_info", members=t, ref_types={}, blacklist=("wait",)
    )


# ----------------------------------------------------------------------
# JBD2: journal_t / transaction_t / journal_head
# ----------------------------------------------------------------------


def build_journal_spec() -> TypeSpec:
    """``journal_t``: ``j_state_lock`` (rwlock) guards commit state,
    ``j_list_lock`` the checkpoint lists, two mutexes serialize
    checkpointing and the barrier.  Fast-path reads of sequence
    numbers and a couple of tail updates skip ``j_state_lock``
    (Tab. 7: 3 845 events over 7 members)."""
    state_r = (ES("j_state_lock", mode="r"),)
    state_w = (ES("j_state_lock", mode="w"),)
    jlist = (ES("j_list_lock"),)
    t = [
        _m("j_flags", read=state_r, write=state_w, group="state", weight=4.0,
           read_skip=0.07),
        _m("j_errno", read=state_r, write=state_w, group="state", weight=3.0,
           write_skip=0.06),
        _m("j_sb_buffer", weight=0.8, ww=0),
        _m("j_format_version", weight=0.5, ww=0),
        _m("j_barrier_count", read=state_r, write=state_w, group="state",
           weight=1.0),
        _m("j_running_transaction", read=state_r, write=state_w,
           group="txn", weight=4.0, read_skip=0.05),
        _m("j_committing_transaction", read=state_r, write=state_w,
           group="txn", weight=3.0, read_skip=0.05),
        _m("j_checkpoint_transactions", read=jlist, write=jlist,
           group="checkpoint", weight=2.0),
        _m("j_wait_transaction_locked", weight=0.4),  # blacklisted
        _m("j_wait_done_commit", weight=0.4),  # blacklisted
        _m("j_wait_commit", weight=0.4),  # blacklisted
        _m("j_wait_updates", weight=0.4),  # blacklisted
        _m("j_wait_reserved", weight=0.3),  # blacklisted
        _m("j_head", read=state_r, write=state_w, group="log", weight=2.0),
        _m("j_tail", read=state_r, write=state_w, group="log", weight=2.0,
           write_skip=0.045),
        _m("j_free", read=state_r, write=state_w, group="log", weight=2.0,
           write_skip=0.045),
        _m("j_first", weight=0.6, ww=0),
        _m("j_last", weight=0.6, ww=0),
        _m("j_dev", weight=0.6, ww=0),
        _m("j_blocksize", weight=0.8, ww=0),
        _m("j_blk_offset", weight=0.5, ww=0),
        _m("j_fs_dev", weight=0.5, ww=0),
        _m("j_maxlen", weight=0.6, ww=0),
        _m("j_reserved_credits", weight=0.8),  # atomic
        _m("j_tail_sequence", read=state_r, write=state_w, group="log",
           weight=1.5),
        _m("j_transaction_sequence", read=state_r, write=state_w,
           group="txn", weight=2.0),
        _m("j_commit_sequence", read=state_r, write=state_w, group="seq",
           weight=2.5, read_skip=0.08),
        _m("j_commit_request", read=state_r, write=state_w, group="seq",
           weight=2.5, read_skip=0.08),
        _m("j_uuid", weight=0.4, ww=0),
        _m("j_task", write=state_w, group="state", weight=0.8, rw=0),
        _m("j_max_transaction_buffers", weight=0.6, ww=0),
        _m("j_commit_interval", weight=0.6, ww=0),
        _m("j_commit_timer", write=state_w, group="state", weight=0.8, rw=0),
        _m("j_revoke", read=(ES("j_checkpoint_mutex"),),
           write=(ES("j_checkpoint_mutex"),), group="revoke", weight=1.0),
        _m("j_revoke_table", write=(ES("j_checkpoint_mutex"),),
           group="revoke", weight=0.8, rw=0),
        _m("j_wbuf", read=(ES("j_barrier"),), write=(ES("j_barrier"),),
           group="barrier", weight=1.0),
        _m("j_wbufsize", weight=0.5, rw=0, ww=0),
        _m("j_last_sync_writer", weight=1.0, rw=0, group="misc"),  # lock-free w
        _m("j_average_commit_time", write=state_w, group="seq", weight=1.0,
           rw=0, write_skip=0.05),
        _m("j_min_batch_time", weight=0.4, ww=0),
        _m("j_max_batch_time", weight=0.4, ww=0),
        _m("j_commit_callback", weight=0.4, ww=0),
        _m("j_failed_commit", weight=0.5, rw=0, ww=0),
        _m("j_chksum_driver", weight=0.3, ww=0),
        _m("j_csum_seed", weight=0.3, ww=0),
        _m("j_devname", weight=0.4, ww=0),
        _m("j_superblock", weight=0.5, ww=0),
        _m("j_history", weight=0.3),  # blacklisted
        _m("j_history_max", weight=0.2),  # blacklisted
        _m("j_history_cur", weight=0.2),  # blacklisted
        _m("j_private", weight=0.3, ww=0),
        _m("j_fc_off", read=jlist, write=jlist, group="checkpoint", weight=0.6),
        _m("j_fc_wbuf", write=jlist, group="checkpoint", weight=0.5, rw=0),
        _m("j_fc_wbufsize", weight=0.3, ww=0),
        _m("j_fc_cleanup_callback", weight=0.2, rw=0, ww=0),
        _m("j_fc_replay_callback", weight=0.2, rw=0, ww=0),
        _m("j_stats", weight=0.3),  # blacklisted
        _m("j_overflow_count", weight=0.3),  # atomic
    ]
    return TypeSpec(
        name="journal_t",
        members=t,
        ref_types={},
        blacklist=(
            "j_wait_transaction_locked",
            "j_wait_done_commit",
            "j_wait_commit",
            "j_wait_updates",
            "j_wait_reserved",
            "j_history",
            "j_history_max",
            "j_history_cur",
            "j_stats",
        ),
    )


def build_transaction_spec() -> TypeSpec:
    """``transaction_t``: guarded by the journal's ``j_state_lock`` /
    ``j_list_lock`` (EO rules) and its own ``t_handle_lock``.
    Deliberately clean (zero violations; best-validated struct of
    Tab. 4 at 79.31 % correct)."""
    j_state = (VIA("t_journal", "j_state_lock", mode="w"),)
    j_state_r = (VIA("t_journal", "j_state_lock", mode="r"),)
    j_list = (VIA("t_journal", "j_list_lock"),)
    handle = (ES("t_handle_lock"),)
    t = [
        _m("t_journal", weight=1.0, ww=0),
        _m("t_tid", weight=2.0, ww=0),
        _m("t_state", read=j_state_r, write=j_state, group="state", weight=3.0),
        _m("t_log_start", read=j_state_r, write=j_state, group="state", weight=1.0),
        _m("t_nr_buffers", read=j_list, write=j_list, group="lists", weight=2.0),
        _m("t_reserved_list", write=j_list, group="lists", weight=1.0, rw=0),
        _m("t_buffers", read=j_list, write=j_list, group="lists", weight=2.5),
        _m("t_forget", read=j_list, write=j_list, group="lists", weight=1.5),
        _m("t_checkpoint_list", read=j_list, write=j_list, group="lists",
           weight=1.5),
        _m("t_checkpoint_io_list", write=j_list, group="lists", weight=1.0, rw=0),
        _m("t_shadow_list", read=j_list, write=j_list, group="lists", weight=1.0),
        _m("t_log_list", write=j_list, group="lists", weight=1.0, rw=0),
        _m("t_updates", group="handle", weight=1.5),  # atomic
        _m("t_outstanding_credits", read=handle, write=handle, group="handle",
           weight=2.0),
        _m("t_handle_count", read=handle, write=handle, group="handle", weight=1.5),
        _m("t_expires", read=j_state_r, write=j_state, group="state", weight=1.0,
           read_skip=0.3),
        _m("t_start_time", weight=1.0, ww=0),
        _m("t_start", read=j_state_r, write=j_state, group="state", weight=1.0),
        _m("t_requested", read=j_state_r, write=j_state, group="state", weight=2.5,
           read_skip=0.35),
        _m("t_chp_stats", weight=0.6, rw=0, ww=0),
        _m("t_tnext", read=j_list, write=j_list, group="cplink", weight=0.8),
        _m("t_tprev", read=j_list, write=j_list, group="cplink", weight=0.8),
        _m("t_need_data_flush", read=j_state_r, group="state", weight=2.0, ww=0,
           read_skip=0.3),
        _m("t_synchronous_commit", write=j_state, group="state", weight=0.6,
           rw=0),
        _m("t_gc_count", weight=0.4, group="misc"),  # lock-free r+w
        _m("t_max_wait", weight=0.5, ww=0),
        _m("t_run_state", read=j_state_r, group="state", weight=2.0, ww=0,
           read_skip=0.25),
    ]
    return TypeSpec(
        name="transaction_t",
        members=t,
        ref_types={"t_journal": "journal_t"},
        blacklist=(),
    )


def build_journal_head_spec() -> TypeSpec:
    """``struct journal_head``: ``b_state_lock`` (the jbd bit-lock) for
    per-buffer journalling state, combined with the journal's
    ``j_list_lock`` for list membership.  Clean (zero violations);
    several payload pointers are read lock-free once frozen."""
    bstate = (ES("b_state_lock"),)
    blist = (ES("b_state_lock"), VIA("b_journal", "j_list_lock"))
    t = [
        _m("b_bh", weight=1.5, ww=0),
        _m("b_jcount", read=bstate, write=bstate, group="state", weight=2.0),
        _m("b_jlist", read=blist, write=blist, group="lists", weight=4.0,
           read_skip=0.34),
        _m("b_modified", read=(), write=bstate, group="state", weight=2.0),
        _m("b_frozen_data", read=(), write=bstate, group="data", weight=1.5),
        _m("b_committed_data", read=(), write=bstate, group="data", weight=1.0),
        _m("b_transaction", read=blist, write=blist, group="lists", weight=4.0,
           read_skip=0.32),
        _m("b_next_transaction", read=blist, write=blist, group="lists",
           weight=3.0, read_skip=0.32),
        _m("b_cp_transaction", read=blist, write=blist, group="cp", weight=3.0,
           read_skip=0.32),
        _m("b_tnext", read=blist, write=blist, group="lists", weight=1.0),
        _m("b_tprev", read=blist, write=blist, group="lists", weight=1.0),
        _m("b_cpnext", write=blist, group="cp", weight=0.8, rw=0),
        _m("b_cpprev", write=blist, group="cp", weight=0.8, rw=0),
        _m("b_triggers", read=(), group="data", weight=0.6, ww=0),
        _m("b_frozen_triggers", read=(), group="data", weight=0.5, ww=0),
    ]
    return TypeSpec(
        name="journal_head",
        members=t,
        ref_types={"b_journal": "journal_t"},
        blacklist=(),
    )


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

_BUILDERS = {
    "backing_dev_info": build_bdi_spec,
    "block_device": build_block_device_spec,
    "buffer_head": build_buffer_head_spec,
    "cdev": build_cdev_spec,
    "dentry": build_dentry_spec,
    "inode": build_inode_spec,
    "journal_head": build_journal_head_spec,
    "journal_t": build_journal_spec,
    "pipe_inode_info": build_pipe_spec,
    "super_block": build_super_block_spec,
    "transaction_t": build_transaction_spec,
}

#: The filesystem subclasses of struct inode observed in Tab. 6.
INODE_SUBCLASSES = (
    "anon_inodefs",
    "bdev",
    "debugfs",
    "devtmpfs",
    "ext4",
    "pipefs",
    "proc",
    "rootfs",
    "sockfs",
    "sysfs",
    "tmpfs",
)


def build_all_specs() -> Dict[str, TypeSpec]:
    """Fresh ground-truth specs for all 11 types."""
    return {name: builder() for name, builder in _BUILDERS.items()}


def build_filter_config() -> FilterConfig:
    """The Sec. 5.3 filter configuration matching the ground truth."""
    return FilterConfig(
        init_teardown_functions=set(INIT_TEARDOWN_FUNCTIONS),
        global_function_blacklist=set(GLOBAL_FUNCTION_BLACKLIST),
        per_type_function_blacklist={},
        member_blacklist=set(MEMBER_BLACKLIST),
    )
