"""Tab. 6: mined locking rules per data type (and inode subclass).

For every type: total members (#M), black-listed/filtered members
(#Bl), members with a derived read/write rule (#Rules r/w), and how
many of those rules are "no lock needed" (#Nl r/w).  Shapes to hold
vs. the paper: read rules outnumber write rules' no-lock share by far;
ext4 inodes are the best covered subclass, debugfs barely appears.

``run(subsystem=...)`` gives another slice's column over its baseline
workload.  ``experiment tab6net`` mines the four observed networking
types (``sock``, ``sk_buff``, ``socket_wq``, ``net_device``) from a
netbench trace and adds each type's mean winning-rule support: every
type yields rules, the ``sk_lock``/queue-spinlock disciplines dominate
``sock``, the stats/scratch members surface as genuine no-lock rules,
and the planted skip-path deviations pull their targets' ``s_r`` just
below 100 % rather than flipping the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.derivator import DerivationResult
from repro.core.report import render_table
from repro.experiments.common import DEFAULT_SCALE, DEFAULT_SEED, get_pipeline
from repro.workloads import subsystems

#: Paper values: {type_key: (#M, #Bl, rules_r, rules_w, nl_r, nl_w)}.
PAPER_TAB6: Dict[str, Tuple[int, int, int, int, int, int]] = {
    "backing_dev_info": (43, 2, 25, 20, 11, 3),
    "block_device": (21, 2, 14, 15, 6, 6),
    "buffer_head": (13, 0, 10, 8, 7, 5),
    "cdev": (6, 0, 2, 6, 2, 4),
    "dentry": (21, 1, 19, 18, 13, 6),
    "inode:anon_inodefs": (65, 5, 11, 2, 8, 0),
    "inode:bdev": (65, 5, 24, 18, 14, 6),
    "inode:debugfs": (65, 5, 0, 1, 0, 0),
    "inode:devtmpfs": (65, 5, 32, 24, 26, 5),
    "inode:ext4": (65, 5, 45, 30, 36, 4),
    "inode:pipefs": (65, 5, 30, 7, 29, 3),
    "inode:proc": (65, 5, 33, 10, 31, 2),
    "inode:rootfs": (65, 5, 38, 19, 35, 3),
    "inode:sockfs": (65, 5, 19, 3, 17, 0),
    "inode:sysfs": (65, 5, 30, 14, 26, 1),
    "inode:tmpfs": (65, 5, 37, 20, 29, 3),
    "journal_head": (15, 0, 13, 12, 6, 0),
    "journal_t": (58, 11, 34, 20, 21, 1),
    "pipe_inode_info": (16, 1, 13, 7, 4, 0),
    "super_block": (56, 3, 35, 8, 21, 2),
    "transaction_t": (27, 1, 20, 16, 9, 1),
}


@dataclass
class Tab6Row:
    """One Tab. 6 row (member/rule/no-lock counts)."""
    type_key: str
    members: int
    blacklisted: int
    rules_r: int
    rules_w: int
    no_lock_r: int
    no_lock_w: int
    mean_s_r: float


def _static_counts(subsystem: subsystems.Subsystem) -> Dict[str, Tuple[int, int]]:
    """(#M, #Bl) per base type from the layouts + filter config."""
    blacklisted = subsystem.member_blacklist
    counts = {}
    for struct in subsystem.build_structs().all():
        data_members = struct.data_members()
        atomic = sum(1 for m in data_members if m.kind.value == "atomic")
        blacklist = sum(
            1 for m in data_members if (struct.name, m.name) in blacklisted
        )
        counts[struct.name] = (len(data_members), atomic + blacklist)
    return counts


@dataclass
class Tab6Result:
    """Tab. 6 mined-rule rows with lookup helpers."""
    rows: List[Tab6Row]
    derivation: DerivationResult
    subsystem: str = subsystems.DEFAULT

    @property
    def data(self):
        show_mean = subsystems.get(self.subsystem).tab6_mean_s_r
        rows = []
        for r in self.rows:
            row = {
                "type": r.type_key,
                "members": r.members,
                "blacklisted": r.blacklisted,
                "rules_r": r.rules_r,
                "rules_w": r.rules_w,
                "no_lock_r": r.no_lock_r,
                "no_lock_w": r.no_lock_w,
            }
            if show_mean:
                row["mean_s_r"] = round(r.mean_s_r, 4)
            rows.append(row)
        return rows

    def row(self, type_key: str) -> Tab6Row:
        for r in self.rows:
            if r.type_key == type_key:
                return r
        raise KeyError(type_key)

    def render(self) -> str:
        column = subsystems.get(self.subsystem)
        headers = ["Data Type", "#M", "#Bl", "#Rules r", "#Rules w", "#Nl r", "#Nl w"]
        table_rows = [
            [r.type_key, r.members, r.blacklisted, r.rules_r, r.rules_w,
             r.no_lock_r, r.no_lock_w]
            for r in self.rows
        ]
        if column.tab6_mean_s_r:
            headers.append("mean s_r")
            for table_row, r in zip(table_rows, self.rows):
                table_row.append(f"{r.mean_s_r:.2%}")
        return render_table(headers, table_rows, title=column.tab6_title)


def run(
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    subsystem: str = subsystems.DEFAULT,
) -> Tab6Result:
    """Regenerate this experiment; see the module docstring for the paper reference."""
    column = subsystems.get(subsystem)
    pipeline = get_pipeline(seed, scale, workload=column.baseline)
    derivation = pipeline.derive()
    static = _static_counts(column)
    rows = []
    for type_key in column.tab6_types():
        members, blacklisted = static[type_key.split(":", 1)[0]]
        per_type = derivation.for_type(type_key)
        mean_s_r = (
            sum(d.winner.s_r for d in per_type) / len(per_type)
            if per_type else 0.0
        )
        rows.append(
            Tab6Row(
                type_key=type_key,
                members=members,
                blacklisted=blacklisted,
                rules_r=derivation.rule_count(type_key, "r"),
                rules_w=derivation.rule_count(type_key, "w"),
                no_lock_r=derivation.no_lock_count(type_key, "r"),
                no_lock_w=derivation.no_lock_count(type_key, "w"),
                mean_s_r=mean_s_r,
            )
        )
    return Tab6Result(rows=rows, derivation=derivation, subsystem=subsystem)
