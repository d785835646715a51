"""Import footprint of the daemon's and the registry's modules.

Daemon workers import :mod:`repro.serve.ops`; every workload lookup
imports :mod:`repro.workloads.registry`.  Neither may pull in a
subsystem slice, the fuzzer, the race analysis or an experiment table
at import time: an eager import there once moved the warm daemon's
peak RSS.  The subsystem descriptors resolve their builders lazily for
this reason.

The CLI's local path and every ``--remote`` client import
:mod:`repro.serve.ops` or :mod:`repro.serve.client`; neither may load
the daemon's server stack (asyncio, ssl, the server, the worker pool),
which the ``repro.serve`` package resolves on first use.
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


SERVER_STACK = ("asyncio", "ssl", "repro.serve.server", "repro.serve.pool")


def _modules_after(statement: str):
    """The module names loaded in a fresh interpreter by *statement*."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = (
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("module", ("repro.serve.ops", "repro.workloads.registry"))
def test_import_loads_no_slice_or_analysis_module(module):
    loaded = [
        name for name in _modules_after(f"import {module}")
        if any(name.startswith(prefix) for prefix in FORBIDDEN)
    ]
    assert loaded == []


@pytest.mark.parametrize("module", ("repro.serve.client", "repro.serve.ops"))
def test_clients_load_no_server_stack(module):
    loaded = set(_modules_after(f"import {module}"))
    assert loaded.isdisjoint(SERVER_STACK)


def test_package_still_exports_the_server_names():
    loaded = _modules_after(
        "from repro.serve import ServerConfig, serve_forever\n"
        "assert ServerConfig.__module__ == 'repro.serve.server'\n"
        "assert callable(serve_forever)"
    )
    assert "repro.serve.server" in loaded
