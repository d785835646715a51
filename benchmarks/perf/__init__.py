"""Performance-benchmark harness (the repo's perf trajectory).

Unlike ``benchmarks/`` (pytest-benchmark regenerations of the paper's
tables), this package holds *timed* end-to-end harnesses that emit
machine-readable ``BENCH_*.json`` artifacts, so CI and future PRs can
track wall-clock numbers over time.

Run the derivation benchmark with::

    PYTHONPATH=src python -m benchmarks.perf.bench_derive \
        --scale 18 --out BENCH_derive.json
"""
