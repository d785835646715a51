"""Aggregate every committed ``BENCH_*.json`` into one trajectory table.

Each perf benchmark writes its own gated JSON report at the repo root
(``BENCH_derive.json``, ``BENCH_db.json``, ...).  They accumulate one
per optimisation PR, which makes the *trajectory* — what got faster,
by how much, and whether its correctness gates still hold — hard to
read without opening six files.  This tool renders them as one table::

    PYTHONPATH=src python -m benchmarks.perf.bench_report

One row per report: the benchmark's headline metric(s) and its gate
status.  Missing files are skipped (a fresh checkout may predate some
benchmarks); unreadable ones are reported as such rather than hiding a
regression behind a crash.  Exit status is 1 if any present report
carries failing gates, so CI can chain it after the benchmark jobs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Callable, Dict, List, Optional

import repro.kernel  # noqa: F401  (must initialize before repro imports)
from repro.core.report import render_table


def _pct(value: Optional[float]) -> str:
    return f"{value:.1%}" if isinstance(value, (int, float)) else "?"


def _x(value: Optional[float]) -> str:
    return f"{value}x" if isinstance(value, (int, float)) else "?"


# Per-report headline extractors: report dict -> one-line summary.
# Every access is defensive (``.get``) — a schema bump in one benchmark
# must not take the whole table down.


def _headline_derive(d: Dict) -> str:
    mix = d.get("workloads", {}).get("mix", {})
    return (
        f"memoized derive {_x(mix.get('speedup_vs_baseline'))} on mix "
        f"({mix.get('targets', '?')} targets)"
    )


def _headline_static(d: Dict) -> str:
    a = d.get("analysis", {})
    return (
        f"{a.get('functions', '?')} fns checked, precision "
        f"{_pct(a.get('precision'))} recall {_pct(a.get('recall'))}"
    )


def _headline_serve(d: Dict) -> str:
    lat, chaos = d.get("latency", {}), d.get("chaos", {})
    return (
        f"daemon warm p50 {lat.get('warm_p50_s', '?')}s vs one-shot fork "
        f"{lat.get('local_warm_s', '?')}s, cold {lat.get('cold_s', '?')}s; "
        f"chaos survival "
        f"{_pct(chaos.get('survival'))}"
    )


def _headline_db(d: Dict) -> str:
    mem = d.get("memory", {})
    return (
        f"sqlite import peak {_pct(mem.get('peak_ratio'))} of in-memory "
        f"at scale {d.get('big_scale', '?')}"
    )


def _headline_net(d: Dict) -> str:
    return (
        f"mined-rule fidelity {_pct(d.get('fidelity'))} "
        f"({d.get('fidelity_matched', '?')}/{d.get('fidelity_total', '?')}), "
        f"{d.get('violations', '?')} planted violations found"
    )


_HEADLINES: Dict[str, Callable[[Dict], str]] = {
    "BENCH_derive": _headline_derive,
    "BENCH_static": _headline_static,
    "BENCH_serve": _headline_serve,
    "BENCH_db": _headline_db,
    "BENCH_net": _headline_net,
}


def _gate_status(stem: str, d: Dict) -> str:
    """``pass`` / ``FAIL: ...`` from whatever gate shape the report uses."""
    gates = d.get("gates")
    if isinstance(gates, dict):
        failures = gates.get("failures")
        if isinstance(failures, list):
            return "pass" if not failures else f"FAIL: {failures[0]}"
        # bench_serve-style: a dict of named boolean gates.
        bad = sorted(k for k, v in gates.items() if v is False)
        return "pass" if not bad else f"FAIL: {bad[0]}"
    # Gateless reports carry their correctness bits at the top level.
    if stem == "BENCH_derive":
        ok = all(
            w.get("serial_matches_baseline")
            for w in d.get("workloads", {}).values()
        )
        return "pass" if ok else "FAIL: derivation mismatch"
    if stem == "BENCH_net":
        ok = (
            d.get("backend_parity")
            and d.get("deterministic")
            and not d.get("missing_plants")
        )
        return "pass" if ok else "FAIL: parity/determinism"
    return "(no gates)"


def collect(root: str) -> List[List[str]]:
    """One table row per ``BENCH_*.json`` under *root*."""
    rows: List[List[str]] = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            rows.append([stem, f"unreadable: {exc}", "FAIL: unreadable"])
            continue
        headline = _HEADLINES.get(stem, lambda d: d.get("schema", "?"))(data)
        rows.append([stem, headline, _gate_status(stem, data)])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="render all BENCH_*.json reports as one table"
    )
    parser.add_argument(
        "--root", default=".",
        help="directory holding the BENCH_*.json files (repo root)",
    )
    args = parser.parse_args(argv)

    rows = collect(args.root)
    if not rows:
        print(f"no BENCH_*.json reports under {args.root!r}", file=sys.stderr)
        return 1
    print(render_table(
        ["benchmark", "headline", "gates"], rows,
        title=f"performance trajectory ({len(rows)} reports)",
    ))
    return 1 if any(row[2].startswith("FAIL") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
