"""Long-lived worker processes with kill-on-deadline and crash
classification.

Cold analysis work (a derive at an unseen scale) runs for tens of
seconds; the daemon must be able to (a) **cancel** it when the
request's deadline expires, (b) **survive** it dying mid-computation,
and (c) keep one request's crash from poisoning another's executor.
The process pool of ``concurrent.futures`` offers none of these — a
running task cannot be cancelled, and one dead worker breaks the whole
pool — so the daemon keeps its own :class:`WorkerPool` of forked
processes, each taking **one request at a time** over its own pipe:

* every worker is forked (``os.fork``) from the warm daemon parent and
  inherits its imports and cache revision; it then keeps its own heap,
  so a reused worker pays no copy-on-write page faults again;
* a worker stays alive only while it answers from cache artifacts
  alone: after each such reply it trims its pipelines to the resident
  bound and keeps the reply, so the same request again is answered
  without a render (:func:`repro.serve.ops.keep_warm`).  After a
  request that computed anything, or ended other than ``ok``, it
  exits, and the pool forks a fresh worker in its place — a cold
  import never stays resident;
* pipe EOF without a result classifies as ``WORKER_CRASH``;
* ``kill()`` (SIGKILL) implements deadline cancellation — the paper
  pipeline is pure (cache writes are atomic), so killing a worker at
  any point is safe;
* a worker holds only stdio and its own two pipe ends (never a
  sibling's pipe or the daemon's sockets), so it exits on EOF of its
  request pipe when the parent dies.

The worker ships classified outcomes, not pickled exceptions: a
``ValueError`` from validation/IO becomes ``BAD_REQUEST``; anything
else becomes ``INTERNAL`` with the exception type in the message.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing import Pipe
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.daemon import ChaosPlan
from repro.serve import ops
from repro.serve.protocol import (
    E_BAD_REQUEST,
    E_DEADLINE,
    E_INTERNAL,
    E_WORKER_CRASH,
    request_key,
)

@dataclass
class TaskOutcome:
    """How one worker execution ended."""

    #: "ok" | "error" | "crash" | "deadline" | "shutdown" (no reply:
    #: the wait was cancelled)
    status: str
    result: Optional[Dict[str, Any]] = None
    error_kind: Optional[str] = None
    error_message: str = ""
    exitcode: Optional[int] = None
    elapsed: float = 0.0
    #: An ``ok`` answered from cache artifacts alone: the worker stays.
    stays: bool = False
    #: The artifacts that reply made resident in the worker.
    resident: Tuple[str, ...] = ()
    #: The reply was one the worker kept, not a fresh render.
    memo: bool = False

    def as_error(self) -> Tuple[str, str]:
        """(kind, message) for the envelope, for non-ok outcomes."""
        if self.status == "crash":
            return (
                E_WORKER_CRASH,
                f"worker died mid-request (exit code {self.exitcode})",
            )
        if self.status == "deadline":
            return (E_DEADLINE, "request deadline expired; worker cancelled")
        return (self.error_kind or E_INTERNAL, self.error_message)

    def retire_reason(self) -> Optional[str]:
        """Why the worker that produced this outcome leaves (None: it
        stays): ``computed``, ``error``, ``crash``, ``deadline`` or
        ``shutdown``."""
        if self.status == "ok":
            return None if self.stays else "computed"
        return self.status


# ---------------------------------------------------------------------
# The worker side (runs in the forked child, never returns)
# ---------------------------------------------------------------------

def _detach(keep: Tuple[int, ...]) -> None:
    """Make a freshly forked child independent of its parent's state:
    close every inherited fd but stdio and *keep* (sibling pipes, the
    listening socket, client connections), leave signal handling to
    the parent, and freeze the inherited heap out of the cyclic
    collector (never collected, so no finalizer closes a reused fd
    number, and no collection writes to the parent's pages)."""
    gc.freeze()
    low = 3
    for fd in sorted(keep):
        os.closerange(low, fd)
        low = max(low, fd + 1)
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))
    signal.set_wakeup_fd(-1)
    # Ctrl-C reaches the whole process group; the parent shuts the
    # pool down.  SIGTERM kills a worker outright.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _compute(op: str, params: Dict[str, Any], chaos: Optional[ChaosPlan],
             attempt: int) -> Tuple[str, Dict[str, Any], Optional[ops.Kept]]:
    """One request: ``(status, payload, kept)``; *kept* is None when
    the worker must exit after replying."""
    try:
        if chaos is not None:
            chaos.inject(request_key(op, params), attempt)
        result = ops.execute(op, params)
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        return "error", {"kind": E_BAD_REQUEST, "message": str(exc)}, None
    except OSError as exc:
        return "error", {"kind": E_INTERNAL, "message": f"OSError: {exc}"}, None
    except BaseException as exc:  # noqa: BLE001 - classify, never leak
        return (
            "error",
            {"kind": E_INTERNAL, "message": f"{type(exc).__name__}: {exc}"},
            None,
        )
    try:
        kept = ops.keep_warm(op, ops.validate(op, params), result)
    except Exception:  # noqa: BLE001 - when in doubt, retire
        kept = None
    return "ok", result, kept


def _serve(requests, replies) -> None:
    """Worker loop: one request at a time until EOF or retirement."""
    while True:
        try:
            op, params, chaos, attempt = requests.recv()
        except (EOFError, OSError):
            return
        status, payload, kept = _compute(op, params, chaos, attempt)
        try:
            replies.send((status, payload, kept))
        except OSError:
            return
        if kept is None:
            return


# ---------------------------------------------------------------------
# The parent side
# ---------------------------------------------------------------------

class Worker:
    """One long-lived worker process, forked from the caller."""

    def __init__(self) -> None:
        requests, self._requests = Pipe(duplex=False)
        self._replies, replies = Pipe(duplex=False)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            code = 1
            try:
                _detach((requests.fileno(), replies.fileno()))
                _serve(requests, replies)
                code = 0
            finally:
                os._exit(code)
        requests.close()
        replies.close()
        self.pid = pid
        #: Requests this worker has answered.
        self.served = 0
        self.started_at = 0.0
        self.exitcode: Optional[int] = None

    def fileno(self) -> int:
        """The readable reply-pipe fd (for event-loop registration)."""
        return self._replies.fileno()

    def submit(
        self,
        op: str,
        params: Dict[str, Any],
        chaos: Optional[ChaosPlan] = None,
        attempt: int = 0,
    ) -> None:
        """Hand the worker one request; raises ``OSError`` when the
        worker is gone."""
        self.started_at = time.monotonic()
        self._requests.send((op, params, chaos, attempt))

    def collect(self) -> TaskOutcome:
        """Read the outcome after the reply pipe became readable (or
        EOF)."""
        elapsed = time.monotonic() - self.started_at
        try:
            status, payload, kept = self._replies.recv()
        except (EOFError, OSError):
            self.close(timeout=5.0)
            return TaskOutcome(
                status="crash", exitcode=self.exitcode, elapsed=elapsed
            )
        self.served += 1
        if status == "ok":
            return TaskOutcome(
                status="ok",
                result=payload,
                elapsed=elapsed,
                stays=kept is not None,
                resident=kept.artifacts if kept is not None else (),
                memo=kept is not None and kept.memo,
            )
        return TaskOutcome(
            status="error",
            error_kind=payload.get("kind", E_INTERNAL),
            error_message=payload.get("message", ""),
            elapsed=elapsed,
        )

    def cancel(self) -> TaskOutcome:
        """Kill the worker (deadline expiry) and report the outcome."""
        elapsed = time.monotonic() - self.started_at
        self.kill()
        return TaskOutcome(status="deadline", elapsed=elapsed)

    def kill(self) -> None:
        if self.exitcode is None:
            os.kill(self.pid, signal.SIGKILL)
        self.close()

    def close(self, timeout: float = 0) -> bool:
        """Close both pipe ends (an idle worker exits on the EOF) and
        reap the process: only if it has exited (*timeout* 0), or
        within *timeout* seconds, past which it is SIGKILLed.  True
        once reaped."""
        self._requests.close()
        self._replies.close()
        give_up = time.monotonic() + timeout
        while self.exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
            elif not timeout:
                return False
            else:
                if time.monotonic() >= give_up:
                    os.kill(self.pid, signal.SIGKILL)
                time.sleep(0.005)
        return True

    # ------------------------------------------------------------------
    # Synchronous driver (tests, benchmarks, local sampling)
    # ------------------------------------------------------------------

    def run(
        self,
        op: str,
        params: Dict[str, Any],
        timeout: Optional[float] = None,
        chaos: Optional[ChaosPlan] = None,
        attempt: int = 0,
    ) -> TaskOutcome:
        """Submit one request and block until it finishes or *timeout*
        expires."""
        try:
            self.submit(op, params, chaos=chaos, attempt=attempt)
            ready = self._replies.poll(timeout)
        except (EOFError, OSError):
            ready = True
        if not ready:
            return self.cancel()
        return self.collect()


def run_task_sync(
    op: str,
    params: Dict[str, Any],
    timeout: Optional[float] = None,
    chaos: Optional[ChaosPlan] = None,
    attempt: int = 0,
) -> TaskOutcome:
    """Fork one worker, run one request on it, and reap it (the one-shot,
    non-asyncio entry point).

    The serve benchmark uses this as its *local* baseline: the fork +
    compute + pipe round trip of a fresh worker, minus the socket and
    envelope.
    """
    worker = Worker()
    try:
        return worker.run(op, params, timeout, chaos=chaos, attempt=attempt)
    finally:
        worker.close(timeout=5.0)


class WorkerPool:
    """``size`` long-lived workers, handed out most recently used first.

    The caller takes a worker with :meth:`start`, waits for its reply
    pipe, and hands it back with :meth:`release`, which keeps it or
    retires it.  Retirements go to *on_retire* ``(worker, reason)``;
    :meth:`fill` forks replacements.
    """

    def __init__(
        self, size: int, on_retire: Callable[[Worker, str], None]
    ) -> None:
        self.size = size
        self._on_retire = on_retire
        #: Idle workers, least recently used first.
        self._idle: List[Worker] = []
        self._busy: List[Worker] = []
        #: Retired workers not yet reaped.
        self._exiting: List[Worker] = []
        self._closed = False
        self.spawned = 0
        #: Requests handed to a worker that had answered one before.
        self.reused = 0
        #: Replies a worker answered with one it kept.
        self.memo_replies = 0

    def fill(self) -> None:
        """Fork workers until the pool is at its size again; fresh ones
        queue behind the warm ones."""
        self._reap()
        while not self._closed and len(self._idle) + len(self._busy) < self.size:
            self._idle.insert(0, Worker())
            self.spawned += 1

    def start(
        self,
        op: str,
        params: Dict[str, Any],
        chaos: Optional[ChaosPlan] = None,
        attempt: int = 0,
    ) -> Worker:
        """Submit one request to the most recently used idle worker (a
        fresh one when none is idle)."""
        self._reap()
        while True:
            if self._idle:
                worker = self._idle.pop()
            else:
                worker = Worker()
                self.spawned += 1
            try:
                worker.submit(op, params, chaos=chaos, attempt=attempt)
            except OSError:  # died while idle
                self._retire(worker, "crash")
                continue
            if worker.served:
                self.reused += 1
            self._busy.append(worker)
            return worker

    def release(self, worker: Worker, outcome: TaskOutcome) -> Optional[str]:
        """Take *worker* back after *outcome*; returns the reason it was
        retired, or None when it stays."""
        if worker not in self._busy:  # retired by close()
            return "shutdown"
        self._busy.remove(worker)
        if outcome.memo:
            self.memo_replies += 1
        reason = outcome.retire_reason()
        if reason is None and not self._closed:
            self._idle.append(worker)
            return None
        # An outcome without a reply (the wait was cancelled) leaves
        # the worker mid-request: kill it.
        self._retire(worker, reason or "shutdown", kill=reason == "shutdown")
        return reason or "shutdown"

    def _retire(self, worker: Worker, reason: str, kill: bool = False) -> None:
        if kill:
            worker.kill()
        if not worker.close():
            self._exiting.append(worker)
        self._on_retire(worker, reason)

    def _reap(self) -> None:
        self._exiting = [w for w in self._exiting if not w.close()]

    def close(self, timeout: float = 5.0) -> None:
        """Retire every worker (busy ones are killed) and reap them all."""
        self._closed = True
        for worker in self._busy:
            self._retire(worker, "shutdown", kill=True)
        for worker in self._idle:
            self._retire(worker, "shutdown")
        self._busy, self._idle = [], []
        for worker in self._exiting:
            worker.close(timeout=timeout)
        self._exiting = []


def worker_env_note() -> Dict[str, Any]:
    """Startup-log diagnostics about the worker mechanism."""
    return {"start_method": "fork", "parent_pid": os.getpid()}
