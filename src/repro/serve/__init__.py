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

from repro.serve.client import DaemonUnreachable, RemoteClient, RemoteError
from repro.serve.protocol import ERROR_KINDS, Request, Response, request_key
from repro.serve.server import ServerConfig, serve_forever

__all__ = [
    "DaemonUnreachable",
    "RemoteClient",
    "RemoteError",
    "ERROR_KINDS",
    "Request",
    "Response",
    "request_key",
    "ServerConfig",
    "serve_forever",
]
