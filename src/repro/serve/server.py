"""The asyncio front end of the analysis daemon.

One event loop accepts requests on a unix-domain socket and drives
every robustness mechanism of the envelope:

* **validation** — op/params are canonicalized up front; junk is
  rejected as ``BAD_REQUEST`` before any resource is committed;
* **budgets** — a per-client token bucket; an empty bucket answers
  ``RETRY_AFTER`` with the seconds until the next token;
* **load shedding** — a bounded admission count; past it, requests are
  rejected immediately (explicit ``RETRY_AFTER``) instead of queueing
  into unbounded latency;
* **coalescing** — duplicate in-flight requests (same content-
  addressed key) share one worker execution; followers are flagged
  ``coalesced`` and keep their own deadlines;
* **deadlines** — each request carries a wall-clock budget; expiry
  kills the worker (SIGKILL) and answers ``DEADLINE``;
* **crash containment** — a worker that dies mid-request is detected
  (pipe EOF + exit code), re-executed at most ``max_retries`` times,
  then classified ``WORKER_CRASH``;
* **recovery** — before accepting, a sweep quarantines torn cache
  entries (see :mod:`repro.serve.recovery`);
* **warm, reused workers** — before accepting, the parent imports what
  the runners need and computes the cache revision
  (:func:`repro.serve.ops.warm`), then forks ``workers`` long-lived
  workers (:class:`repro.serve.pool.WorkerPool`).  A request goes to
  the most recently used idle worker, which keeps the artifacts its
  replies read and its last reply to each operation, so it answers a
  repeated request without rendering it again; a worker that computed
  anything, failed, crashed or missed its deadline is retired and
  replaced by a fresh fork;
* **observability** — every event lands in the JSON-lines structured
  log (each retirement is one ``worker_retired`` event with its
  reason; a ``reply`` answered with a kept reply is marked ``memo``);
  ``status`` reports live counters, workers spawned apart from
  requests a reused worker served and replies it had kept.

The handler never lets an exception escape to the transport: anything
unexpected is logged and classified ``INTERNAL``.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import repro.kernel  # noqa: F401  (must initialize before repro.tracing)
from repro.atomicio import atomic_write_json
from repro.faults.daemon import ChaosPlan
from repro.serve import ops, pool, recovery
from repro.serve.envelope import Admission, ClientBudgets, Deadline
from repro.serve.protocol import (
    E_BAD_REQUEST,
    E_DEADLINE,
    E_INTERNAL,
    E_RETRY_AFTER,
    E_SHUTTING_DOWN,
    MAX_LINE,
    ProtocolError,
    Request,
    Response,
    request_key,
)
from repro.serve.slog import StructuredLog


def _default_workers() -> int:
    return max(2, min(8, os.cpu_count() or 2))


@dataclass
class ServerConfig:
    """Tunables of one daemon instance."""

    socket_path: Path
    workers: int = field(default_factory=_default_workers)
    #: Admission bound: max concurrently active requests (running or
    #: waiting on a worker slot); beyond it requests are shed.
    max_inflight: int = 32
    #: Per-client token bucket: sustained requests/s and burst size.
    #: A client that works between requests (the end-to-end
    #: benchmark's, ~30 requests/s) never meets the default.  One that
    #: sends ``stats`` back to back gets ~1.2 ms replies from a reused
    #: worker, ~800 requests/s on a 2-core host, and is held to the
    #: rate past its burst.
    bucket_rate: float = 200.0
    bucket_burst: float = 400.0
    #: Deadline applied when the client sends none.
    default_deadline: float = 300.0
    #: Retry hint handed out when shedding load.
    shed_retry_after: float = 1.0
    #: Bounded re-execution: how many times a crashed worker's request
    #: is retried before answering ``WORKER_CRASH``.
    max_retries: int = 1
    #: Daemon-level fault injection (chaos harness); empty = off.
    chaos_spec: str = ""
    chaos_seed: int = 0
    log_path: Optional[Path] = None
    pidfile: Optional[Path] = None
    #: Skip the startup recovery sweep (tests only).
    skip_sweep: bool = False


class AnalysisServer:
    """One daemon instance; drive with :func:`serve_forever`."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.chaos: Optional[ChaosPlan] = (
            ChaosPlan.from_spec(config.chaos_spec, seed=config.chaos_seed)
            if config.chaos_spec
            else None
        )
        self.log = StructuredLog(config.log_path)
        self.budgets = ClientBudgets(config.bucket_rate, config.bucket_burst)
        self.admission = Admission(config.max_inflight)
        self.counters: Dict[str, int] = {
            "received": 0,
            "ok": 0,
            "coalesced": 0,
            "shed": 0,
            "budget_denied": 0,
            "worker_retries": 0,
        }
        self.error_counts: Dict[str, int] = {}
        self.started_at = time.time()
        self.sweep_report: Optional[recovery.SweepReport] = None
        self._slots = asyncio.Semaphore(config.workers)
        self._inflight: Dict[str, asyncio.Task] = {}
        self._pool = pool.WorkerPool(config.workers, on_retire=self._retired)
        self._stop = asyncio.Event()
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        self._draining = True
        self._stop.set()

    async def _claim_socket(self) -> None:
        """Bind the socket path, evicting a stale leftover socket."""
        path = self.config.socket_path
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            try:
                _, writer = await asyncio.wait_for(
                    asyncio.open_unix_connection(str(path)), timeout=1.0
                )
                writer.close()
                raise ValueError(f"a daemon is already serving on {path}")
            except (ConnectionError, FileNotFoundError, OSError, asyncio.TimeoutError):
                path.unlink(missing_ok=True)  # stale socket from a dead daemon

    async def start(self) -> None:
        if not self.config.skip_sweep:
            self.sweep_report = recovery.sweep()
            for name, reason in self.sweep_report.quarantined:
                self.log.emit("sweep_quarantine", file=name, reason=reason)
        ops.warm()
        self._pool.fill()
        await self._claim_socket()
        self._server = await asyncio.start_unix_server(
            self._handle_conn, path=str(self.config.socket_path), limit=MAX_LINE
        )
        if self.config.pidfile is not None:
            atomic_write_json(
                self.config.pidfile,
                {
                    "pid": os.getpid(),
                    "socket": str(self.config.socket_path),
                    "started": self.started_at,
                },
            )
        self.log.emit(
            "start",
            pid=os.getpid(),
            socket=str(self.config.socket_path),
            workers=self.config.workers,
            max_inflight=self.config.max_inflight,
            bucket_rate=self.config.bucket_rate,
            bucket_burst=self.config.bucket_burst,
            chaos=self.config.chaos_spec or None,
            sweep=(
                self.sweep_report.to_json_dict()
                if self.sweep_report is not None
                else None
            ),
            **pool.worker_env_note(),
        )

    async def run_until_stopped(self) -> None:
        await self._stop.wait()
        # Grace period: let the connection that requested shutdown
        # receive its acknowledgement before the listener dies.
        await asyncio.sleep(0.1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._inflight.values()):
            task.cancel()
        if self._inflight:
            await asyncio.gather(
                *self._inflight.values(), return_exceptions=True
            )
        self._pool.close()
        self.log.emit("shutdown", served=self.counters["received"])
        self.log.close()
        if self.config.pidfile is not None:
            Path(self.config.pidfile).unlink(missing_ok=True)
        self.config.socket_path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        response: Optional[Response] = None
        try:
            try:
                line = await asyncio.wait_for(reader.readline(), timeout=60.0)
            except asyncio.TimeoutError:
                return  # silent client: drop the connection
            if not line:
                return
            try:
                request = Request.from_wire(line)
            except ProtocolError as exc:
                response = Response.error("", E_BAD_REQUEST, str(exc))
            else:
                response = await self._dispatch(request)
        except asyncio.CancelledError:
            response = Response.error(
                "", E_SHUTTING_DOWN, "daemon is shutting down"
            )
        except Exception as exc:  # noqa: BLE001 - the envelope never leaks
            self.log.emit(
                "internal_error", error=f"{type(exc).__name__}: {exc}"
            )
            response = Response.error(
                "", E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            if response is not None:
                try:
                    writer.write(response.to_wire())
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Dispatch: the robustness envelope
    # ------------------------------------------------------------------

    def _count_error(self, kind: str) -> None:
        self.error_counts[kind] = self.error_counts.get(kind, 0) + 1

    def _finish(self, response: Response, request: Request, t0: float) -> Response:
        latency_ms = round((time.monotonic() - t0) * 1000, 3)
        response.meta.setdefault("latency_ms", latency_ms)
        if response.status == "ok":
            self.counters["ok"] += 1
        else:
            self._count_error(response.error_kind or E_INTERNAL)
        self.log.emit(
            "reply",
            id=request.request_id,
            client=request.client,
            op=request.op,
            status=response.status,
            kind=response.error_kind,
            latency_ms=latency_ms,
            coalesced=bool(response.meta.get("coalesced")),
            memo=bool(response.meta.get("memo")),
            attempts=response.meta.get("attempts"),
        )
        return response

    async def _dispatch(self, request: Request) -> Response:
        t0 = time.monotonic()
        self.counters["received"] += 1
        self.log.emit(
            "request",
            id=request.request_id,
            client=request.client,
            op=request.op,
            deadline=request.deadline,
        )
        if request.op == "ping":
            return self._finish(
                Response.ok(request.request_id, {"pong": True}), request, t0
            )
        if request.op == "status":
            return self._finish(
                Response.ok(request.request_id, self.status_payload()),
                request,
                t0,
            )
        if request.op == "shutdown":
            self.request_stop()
            self.log.emit("shutdown_requested", client=request.client)
            return self._finish(
                Response.ok(request.request_id, {"stopping": True}), request, t0
            )
        if self._draining:
            return self._finish(
                Response.error(
                    request.request_id,
                    E_SHUTTING_DOWN,
                    "daemon is draining",
                    retry_after=1.0,
                ),
                request,
                t0,
            )
        try:
            params = ops.validate(request.op, request.params)
        except ValueError as exc:
            return self._finish(
                Response.error(request.request_id, E_BAD_REQUEST, str(exc)),
                request,
                t0,
            )
        granted, retry_after = self.budgets.try_take(request.client)
        if not granted:
            self.counters["budget_denied"] += 1
            self.log.emit(
                "budget_denied", client=request.client, retry_after=retry_after
            )
            return self._finish(
                Response.error(
                    request.request_id,
                    E_RETRY_AFTER,
                    f"client {request.client!r} exceeded its request budget",
                    retry_after=retry_after,
                ),
                request,
                t0,
            )
        if not self.admission.try_enter():
            self.counters["shed"] += 1
            self.log.emit("shed", client=request.client, active=self.admission.active)
            return self._finish(
                Response.error(
                    request.request_id,
                    E_RETRY_AFTER,
                    f"server at capacity ({self.admission.limit} active requests)",
                    retry_after=self.config.shed_retry_after,
                ),
                request,
                t0,
            )
        try:
            response = await self._admitted(request, params)
        finally:
            self.admission.leave()
        return self._finish(response, request, t0)

    async def _admitted(
        self, request: Request, params: Dict[str, Any]
    ) -> Response:
        key = request_key(request.op, params)
        deadline = Deadline(request.deadline or self.config.default_deadline)
        leader_task = self._inflight.get(key)
        coalesced = leader_task is not None
        if leader_task is None:
            leader_task = asyncio.ensure_future(
                self._execute(key, request.op, params, deadline)
            )
            self._inflight[key] = leader_task
            leader_task.add_done_callback(
                lambda _task, _key=key: self._inflight.pop(_key, None)
            )
        else:
            self.counters["coalesced"] += 1
        try:
            if coalesced:
                outcome, attempts = await asyncio.wait_for(
                    asyncio.shield(leader_task), deadline.remaining()
                )
            else:
                outcome, attempts = await leader_task
        except asyncio.TimeoutError:
            return Response.error(
                request.request_id,
                E_DEADLINE,
                "deadline expired while awaiting a coalesced twin request",
                coalesced=True,
            )
        except asyncio.CancelledError:
            return Response.error(
                request.request_id,
                E_SHUTTING_DOWN,
                "daemon shut down mid-request",
            )
        if outcome.status == "ok":
            return Response.ok(
                request.request_id,
                outcome.result or {},
                coalesced=coalesced,
                memo=outcome.memo,
                attempts=attempts,
                compute_ms=round(outcome.elapsed * 1000, 3),
            )
        kind, message = outcome.as_error()
        return Response.error(
            request.request_id,
            kind,
            message,
            coalesced=coalesced,
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    # Worker execution with deadline + bounded re-execution
    # ------------------------------------------------------------------

    async def _await_worker(
        self, worker: pool.Worker, timeout: Optional[float]
    ) -> pool.TaskOutcome:
        loop = asyncio.get_running_loop()
        readable: asyncio.Future = loop.create_future()
        fd = worker.fileno()

        def _on_readable() -> None:
            if not readable.done():
                readable.set_result(True)

        loop.add_reader(fd, _on_readable)
        timed_out = False
        try:
            await asyncio.wait_for(readable, timeout)
        except asyncio.TimeoutError:
            timed_out = True
        finally:
            loop.remove_reader(fd)
        if timed_out:
            outcome = worker.cancel()
            self.log.emit("worker_killed", pid=worker.pid, reason="deadline")
            return outcome
        return worker.collect()

    async def _execute(
        self, key: str, op: str, params: Dict[str, Any], deadline: Deadline
    ) -> Tuple[pool.TaskOutcome, int]:
        attempt = 0
        while True:
            async with self._slots:
                remaining = deadline.remaining()
                if remaining is not None and remaining <= 0:
                    return pool.TaskOutcome(status="deadline"), attempt + 1
                worker = self._pool.start(
                    op, params, chaos=self.chaos, attempt=attempt
                )
                outcome = pool.TaskOutcome(status="shutdown")
                try:
                    outcome = await self._await_worker(worker, remaining)
                finally:
                    self._release(worker, op, params, outcome)
            if outcome.status == "crash":
                self.log.emit(
                    "worker_crash",
                    key=key,
                    op=op,
                    pid=worker.pid,
                    exitcode=outcome.exitcode,
                    attempt=attempt,
                    will_retry=attempt < self.config.max_retries,
                )
                if attempt < self.config.max_retries:
                    attempt += 1
                    self.counters["worker_retries"] += 1
                    continue
            return outcome, attempt + 1

    def _release(
        self,
        worker: pool.Worker,
        op: str,
        params: Dict[str, Any],
        outcome: pool.TaskOutcome,
    ) -> None:
        """Hand *worker* back to the pool; log what it keeps resident,
        and fork a replacement, after the reply is written, when it
        was retired."""
        if outcome.resident:
            self.log.emit(
                "resident",
                pid=worker.pid,
                op=op,
                workload=params["workload"],
                seed=params["seed"],
                scale=params["scale"],
                artifacts=list(outcome.resident),
            )
        if self._pool.release(worker, outcome) is not None:
            # Nothing between here and the handler's write yields to
            # the loop, so the fork runs after the reply is sent.
            asyncio.get_running_loop().call_soon(self._pool.fill)

    def _retired(self, worker: pool.Worker, reason: str) -> None:
        self.log.emit(
            "worker_retired", pid=worker.pid, reason=reason, served=worker.served
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status_payload(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "socket": str(self.config.socket_path),
            "workers": self.config.workers,
            "max_inflight": self.config.max_inflight,
            "active": self.admission.active,
            "inflight_keys": len(self._inflight),
            "counters": {
                **self.counters,
                "workers_spawned": self._pool.spawned,
                "reused_worker_requests": self._pool.reused,
                "memo_replies": self._pool.memo_replies,
            },
            "errors": dict(self.error_counts),
            "chaos": self.config.chaos_spec or None,
            "sweep": (
                self.sweep_report.to_json_dict()
                if self.sweep_report is not None
                else None
            ),
            "operations": list(ops.operation_names()),
        }


async def serve_async(config: ServerConfig) -> None:
    """Start a daemon and serve until a shutdown request or signal."""
    server = AnalysisServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    import signal as _signal

    for sig in (_signal.SIGINT, _signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, server.request_stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await server.run_until_stopped()


def serve_forever(config: ServerConfig) -> None:
    """Blocking entry point (the ``lockdoc serve run`` body)."""
    asyncio.run(serve_async(config))
