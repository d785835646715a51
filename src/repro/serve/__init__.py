"""Always-on analysis service (``lockdoc serve`` + ``--remote``).

One long-lived daemon owns the content-addressed trace/artifact cache
and answers ``derive`` / ``races`` / ``violations`` / ``health`` /
``check`` requests from many concurrent clients — the "one shared warm
store, N cheap clients" refactor of the ROADMAP.  The package is split
by concern:

==============  =====================================================
``protocol``    the fault-tolerant request envelope (JSON lines,
                classified error kinds, content-addressed request keys)
``ops``         the operation registry: validated params → rendered
                result, shared verbatim by local and remote execution
``envelope``    robustness primitives: deadlines, token buckets,
                admission counters
``pool``        long-lived, reused worker processes with
                kill-on-deadline and crashed-worker classification
``recovery``    startup sweep quarantining torn/corrupt cache entries
``server``      the asyncio front end: coalescing, budgets, shedding,
                bounded re-execution, structured logging
``client``      sync client: retries with exponential backoff +
                jitter, server retry hints, degraded local fallback
``daemon``      run/status/stop management (socket, pidfile, log)
``slog``        JSON-lines structured log
==============  =====================================================

Every request terminates in a correct result or a clean, classified
error — never a hang, a traceback, or a silently-wrong artifact.
"""

import importlib
from typing import Any

#: Public name -> defining submodule.  The names resolve on first use
#: (PEP 562), so ``import repro.serve.ops`` or ``import
#: repro.serve.client`` loads neither asyncio nor the server stack:
#: only the daemon and the ``serve`` command pay for it.
_EXPORTS = {
    "DaemonUnreachable": "client",
    "RemoteClient": "client",
    "RemoteError": "client",
    "ERROR_KINDS": "protocol",
    "Request": "protocol",
    "Response": "protocol",
    "request_key": "protocol",
    "ServerConfig": "server",
    "serve_forever": "server",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
