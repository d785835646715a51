"""Import footprint of the daemon's and the registry's modules.

Daemon workers import :mod:`repro.serve.ops`; every workload lookup
imports :mod:`repro.workloads.registry`.  Neither may pull in a
subsystem slice, the fuzzer, the race analysis or an experiment table
at import time: an eager import there once moved the warm daemon's
peak RSS.  The subsystem descriptors resolve their builders lazily for
this reason.
"""

import json
import os
import subprocess
import sys

import pytest

FORBIDDEN = (
    "repro.kernel.net",
    "repro.fuzz",
    "repro.analysis",
    "repro.experiments.tab",
)


@pytest.mark.parametrize("module", ("repro.serve.ops", "repro.workloads.registry"))
def test_import_loads_no_slice_or_analysis_module(module):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = (
        "import json, sys\n"
        f"import {module}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    loaded = [
        name for name in json.loads(out)
        if any(name.startswith(prefix) for prefix in FORBIDDEN)
    ]
    assert loaded == []
