"""Ground-truth locking rules for the 4 observed networking types.

The net slice deliberately exercises locking idioms the VFS slice does
not have:

* ``sk_lock`` — the socket *owner* lock, a sleeping semaphore taken by
  every process-context socket operation (``lock_sock`` in the real
  kernel).  Nothing in the VFS model uses the semaphore class.
* ``sk_receive_queue.lock`` / ``sk_write_queue.lock`` — spinlocks taken
  with the ``_bh`` flavor because packet delivery runs in softirq
  context, so the mined rules include the synthetic ``softirq``
  pseudo-lock (the VFS analogue, buffer heads, uses ``_irq``).
* ``net_device`` configuration — RCU-protected reads with writes
  serialized by the global ``rtnl_mutex`` (a *mutex-class* global; all
  VFS globals are spinlocks/seqlocks).
* ``net_family_lock`` — a global spinlock guarding the per-family sock
  list; the sockstress workload deliberately orders it against the VFS
  ``sb_lock`` both ways to plant a cross-subsystem lock-order
  inversion.

Planted deviations (the injected bugs LockDoc must surface) are all
kept below the 10 % accept-threshold complement so the true rules still
win:

=============  ======================  =====================
type           member                  skip
=============  ======================  =====================
sock           sk_sndbuf               ``write_skip=0.06``
sock           sk_receive_queue.qlen   ``read_skip=0.05``
sk_buff        len                     ``write_skip=0.055``
net_device     flags                   ``write_skip=0.05``
=============  ======================  =====================
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.db.filters import FilterConfig
from repro.kernel.vfs.spec import LockTok, MemberSpec, TypeSpec, global_lock_tokens

ES = LockTok.es
VIA = LockTok.via_
RCU = LockTok.rcu

#: Global (static) locks the net model uses: name -> lock class.
NET_GLOBAL_LOCKS: Dict[str, str] = {
    "net_family_lock": "spinlock_t",
    "rtnl_mutex": "mutex",
}

GLOBAL = global_lock_tokens(NET_GLOBAL_LOCKS)

#: Functions whose dynamic extent is object construction/teardown.
NET_INIT_TEARDOWN_FUNCTIONS = {
    "sk_alloc",
    "sock_init_data",
    "sk_free",
    "sk_destruct",
    "alloc_skb",
    "skb_release_all",
    "kfree_skbmem",
    "alloc_netdev",
    "free_netdev",
    "sock_alloc_wq",
    "sock_free_wq",
}

#: (type, member) pairs excluded from analysis (wait queues etc.).
NET_MEMBER_BLACKLIST = {
    ("socket_wq", "wait"),
    ("sock", "sk_backlog"),
}

#: The planted deviations, as (type, member, access_type) — tests and
#: bench_net assert each one surfaces as a rule violation.
NET_PLANTED_DEVIATIONS = (
    ("sock", "sk_sndbuf", "w"),
    ("sock", "sk_receive_queue.qlen", "r"),
    ("sk_buff", "len", "w"),
    ("net_device", "flags", "w"),
)


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
# struct sock
# ----------------------------------------------------------------------


def build_sock_spec() -> TypeSpec:
    """Ground truth for ``struct sock``.

    ``sk_lock`` (the owner semaphore) covers connection state and buffer
    limits; the receive/write queue heads take their own ``_bh``
    spinlocks; ``sk_dst_cache`` is RCU-read / ``sk_dst_lock``-write;
    callback plumbing uses the ``sk_callback_lock`` rwlock; the
    per-family membership node takes the global ``net_family_lock``.
    """
    sk = (ES("sk_lock"),)
    rxq = (ES("sk_receive_queue.lock", flavor="bh"),)
    # The write queue is only ever touched by the socket owner, so the
    # documented discipline is sk_lock *plus* the queue spinlock — the
    # two-token rule sendmsg actually exhibits (unlike the receive
    # queue, whose softirq delivery path can never take sk_lock).
    txq = (ES("sk_lock"), ES("sk_write_queue.lock", flavor="bh"))
    cb_r = (ES("sk_callback_lock", mode="r"),)
    cb_w = (ES("sk_callback_lock", mode="w"),)
    t = [
        # -- identity, immutable after sock_init_data.
        _m("sk_family", weight=2.0, ww=0),
        _m("sk_type", weight=1.5, ww=0),
        _m("sk_protocol", weight=1.5, ww=0),
        _m("sk_prot", weight=1.0, ww=0),
        # -- connection state under the owner lock; sk_state has a
        #    legitimate lock-free peek path (tcp_poll-style), which
        #    makes the documented read rule ambivalent.
        _m("sk_state", read=sk, write=sk, group="state", weight=6.0,
           lockfree_alt=0.55),
        _m("sk_shutdown", read=sk, write=sk, group="state", weight=3.0),
        _m("sk_err", read=sk, write=sk, group="state", weight=2.5),
        _m("sk_err_soft", write=sk, group="state", weight=1.5, rw=0),
        # -- buffer limits: sk_sndbuf writes deviate (planted bug: a
        #    setsockopt fast path skips lock_sock).
        _m("sk_rcvbuf", read=sk, write=sk, group="buffers", weight=4.0),
        _m("sk_sndbuf", read=sk, write=sk, group="buffers", weight=4.0,
           write_skip=0.06),
        _m("sk_rcvtimeo", write=sk, group="timeo", weight=1.5),
        _m("sk_sndtimeo", write=sk, group="timeo", weight=1.5),
        # -- receive queue head: _bh spinlock, shared with softirq
        #    delivery; qlen reads deviate (planted bug: a poll fast
        #    path peeks at the queue length without the lock).
        _m("sk_receive_queue.next", read=rxq, write=rxq, group="rxq",
           weight=5.0),
        _m("sk_receive_queue.prev", read=rxq, write=rxq, group="rxq",
           weight=4.0),
        _m("sk_receive_queue.qlen", read=rxq, write=rxq, group="rxq",
           weight=5.0, read_skip=0.05),
        # -- write queue head: owner lock then queue spinlock, clean.
        _m("sk_write_queue.next", read=txq, write=txq, group="txq",
           weight=3.0),
        _m("sk_write_queue.prev", read=txq, write=txq, group="txq",
           weight=2.5),
        _m("sk_write_queue.qlen", read=txq, write=txq, group="txq",
           weight=3.0),
        # -- route cache: RCU readers, spinlock writers.
        _m("sk_dst_cache", read=(RCU(),), write=(ES("sk_dst_lock"),),
           group="dst", weight=3.0),
        # -- callback plumbing: rwlock, read-mostly.
        _m("sk_socket", read=cb_r, write=cb_w, group="callbacks", weight=2.0),
        _m("sk_wq", read=cb_r, write=cb_w, group="callbacks", weight=2.0),
        _m("sk_user_data", read=cb_r, write=cb_w, group="callbacks",
           weight=1.0),
        # -- per-family sock list: global lock.
        _m("sk_node", read=(GLOBAL("net_family_lock"),),
           write=(GLOBAL("net_family_lock"),), group="family", weight=2.0),
        _m("sk_backlog", group="state", weight=0.5),  # blacklisted member
        _m("sk_priority", weight=1.0, group="misc"),  # lock-free r+w
        _m("sk_mark", weight=0.8, group="misc"),  # lock-free r+w
        # -- atomics: traced but filtered (Sec. 5.3).
        _m("sk_refcnt", group="refs", weight=1.0),
        _m("sk_wmem_alloc", weight=0.5),
        _m("sk_rmem_alloc", weight=0.5),
        _m("sk_drops", weight=0.4),
    ]
    return TypeSpec(
        name="sock",
        members=t,
        ref_types={},
        blacklist=("sk_backlog",),
    )


# ----------------------------------------------------------------------
# struct sk_buff
# ----------------------------------------------------------------------


def build_sk_buff_spec() -> TypeSpec:
    """``struct sk_buff``: list linkage under the *owning sock's* queue
    lock (an EO rule through the ``sk`` back-reference — the net
    analogue of Fig. 8), payload geometry under the owner ``sk_lock``,
    ``dev`` read under RCU.  ``len`` writes deviate (planted bug: a
    trim helper edits the length without the socket lock)."""
    links = (VIA("sk", "sk_receive_queue.lock", flavor="bh"),)
    payload = (VIA("sk", "sk_lock"),)
    t = [
        _m("next", read=links, write=links, group="links", weight=5.0),
        _m("prev", read=links, write=links, group="links", weight=4.0),
        _m("sk", weight=1.5, ww=0),
        _m("dev", read=(RCU(),), group="route", weight=2.0, ww=0),
        _m("len", read=payload, write=payload, group="payload", weight=5.0,
           write_skip=0.055),
        _m("data_len", read=payload, write=payload, group="payload",
           weight=3.0),
        _m("truesize", weight=1.5, ww=0),
        _m("protocol", weight=1.5, ww=0),
        _m("data", read=payload, write=payload, group="geometry", weight=3.0),
        _m("head", weight=1.0, ww=0),
        _m("tail", read=payload, write=payload, group="geometry", weight=3.0),
        _m("end", weight=1.0, ww=0),
        _m("cb", weight=1.5, group="misc"),  # lock-free r+w scratch
        _m("queue_mapping", weight=0.8, group="misc"),  # lock-free r+w
        _m("hash", weight=0.8, group="misc"),  # lock-free r+w
        _m("users", group="refs", weight=0.8),  # atomic
    ]
    return TypeSpec(
        name="sk_buff",
        members=t,
        ref_types={"sk": "sock"},
        blacklist=(),
    )


# ----------------------------------------------------------------------
# struct socket_wq
# ----------------------------------------------------------------------


def build_socket_wq_spec() -> TypeSpec:
    """``struct socket_wq``: written under the owning sock's
    ``sk_callback_lock``; ``flags`` has an RCU read path.  Clean —
    zero planted deviations."""
    cb_r = (VIA("sk", "sk_callback_lock", mode="r"),)
    cb_w = (VIA("sk", "sk_callback_lock", mode="w"),)
    t = [
        _m("wait", weight=0.5, ww=0),  # blacklisted member
        _m("fasync_list", read=cb_r, write=cb_w, group="fasync", weight=1.5),
        _m("flags", read=(RCU(),), write=cb_w, group="flags", weight=2.5),
        _m("sk", weight=1.0, ww=0),
    ]
    return TypeSpec(
        name="socket_wq",
        members=t,
        ref_types={"sk": "sock"},
        blacklist=("wait",),
    )


# ----------------------------------------------------------------------
# struct net_device
# ----------------------------------------------------------------------


def build_net_device_spec() -> TypeSpec:
    """``struct net_device``: configuration is RCU-read with writes
    under the global ``rtnl_mutex``; address lists take the embedded
    ``addr_list_lock`` spinlock; per-cpu-style stats are lock-free.
    ``flags`` writes deviate (planted bug: a flag-toggle path skips
    rtnl)."""
    rtnl = (GLOBAL("rtnl_mutex"),)
    addrs = (ES("addr_list_lock"),)
    t = [
        _m("name", weight=2.0, ww=0),
        _m("ifindex", weight=2.0, ww=0),
        _m("state", read=(RCU(),), write=rtnl, group="cfg", weight=4.0),
        _m("flags", read=(RCU(),), write=rtnl, group="cfg", weight=4.0,
           write_skip=0.05),
        _m("mtu", read=(RCU(),), write=rtnl, group="cfg", weight=3.0),
        _m("type", weight=1.0, ww=0),
        _m("operstate", read=(RCU(),), write=rtnl, group="cfg", weight=2.0),
        _m("dev_addr", read=addrs, write=rtnl + addrs, group="addrs",
           weight=2.0),
        _m("broadcast", weight=0.8, ww=0),
        _m("features", weight=1.5, ww=0),
        _m("uc", read=addrs, write=addrs, group="addrlist", weight=2.0),
        _m("mc", read=addrs, write=addrs, group="addrlist", weight=2.0),
        _m("promiscuity", write=addrs, group="addrlist", weight=1.0, rw=0),
        _m("qdisc", read=(RCU(),), write=rtnl, group="cfg", weight=1.5),
        _m("refcnt", group="refs", weight=1.0),  # atomic
        _m("rx_packets", weight=2.0, group="stats"),  # lock-free r+w
        _m("tx_packets", weight=2.0, group="stats"),  # lock-free r+w
        _m("rx_bytes", weight=1.5, group="stats"),  # lock-free r+w
        _m("tx_bytes", weight=1.5, group="stats"),  # lock-free r+w
        _m("rx_dropped", weight=0.8, group="stats"),  # lock-free r+w
    ]
    return TypeSpec(
        name="net_device",
        members=t,
        ref_types={},
        blacklist=(),
    )


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

_NET_BUILDERS = {
    "net_device": build_net_device_spec,
    "sk_buff": build_sk_buff_spec,
    "sock": build_sock_spec,
    "socket_wq": build_socket_wq_spec,
}


def build_net_specs() -> Dict[str, TypeSpec]:
    """Fresh ground-truth specs for the 4 net types."""
    return {name: builder() for name, builder in _NET_BUILDERS.items()}


def build_net_filter_config() -> FilterConfig:
    """Filter configuration matching the net ground truth."""
    return FilterConfig(
        init_teardown_functions=set(NET_INIT_TEARDOWN_FUNCTIONS),
        global_function_blacklist=set(),
        per_type_function_blacklist={},
        member_blacklist=set(NET_MEMBER_BLACKLIST),
    )
