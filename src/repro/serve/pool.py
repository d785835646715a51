"""Worker processes with kill-on-deadline and crash classification.

Cold analysis work (a derive at an unseen scale) runs for tens of
seconds; the daemon must be able to (a) **cancel** it when the
request's deadline expires, (b) **survive** it dying mid-computation,
and (c) keep one request's crash from poisoning another's executor.
The process pool of ``concurrent.futures`` offers none of these — a
running task cannot be cancelled, and one dead worker breaks the whole
pool — so the daemon spawns **one process per task**, bounded by the
server's worker semaphore:

* fork start-method where available (Linux): spawn cost is
  milliseconds and the child inherits the parent's warm imports;
* the result travels over a dedicated pipe; pipe EOF without a result
  plus a dead process classifies as ``WORKER_CRASH``;
* ``kill()`` (SIGKILL) implements deadline cancellation — the paper
  pipeline is pure (cache writes are atomic), so killing a worker at
  any point is safe.

The child ships classified outcomes, not pickled exceptions: a
``ValueError`` from validation/IO becomes ``BAD_REQUEST``; anything
else becomes ``INTERNAL`` with the exception type in the message.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.faults.daemon import ChaosPlan
from repro.serve import ops
from repro.serve.protocol import (
    E_BAD_REQUEST,
    E_DEADLINE,
    E_INTERNAL,
    E_WORKER_CRASH,
    request_key,
)


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix fallback
        return multiprocessing.get_context("spawn")


def _child_main(conn, op: str, params: Dict[str, Any],
                chaos: Optional[ChaosPlan], attempt: int) -> None:
    """Worker entry point: compute, classify, ship one message."""
    try:
        if chaos is not None:
            chaos.inject(request_key(op, params), attempt)
        result = ops.execute(op, params)
        conn.send(("ok", result))
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        conn.send(("error", {"kind": E_BAD_REQUEST, "message": str(exc)}))
    except OSError as exc:
        conn.send(("error", {"kind": E_INTERNAL, "message": f"OSError: {exc}"}))
    except BaseException as exc:  # noqa: BLE001 - classify, never leak
        conn.send((
            "error",
            {"kind": E_INTERNAL, "message": f"{type(exc).__name__}: {exc}"},
        ))
    finally:
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class TaskOutcome:
    """How one worker execution ended."""

    status: str  # "ok" | "error" | "crash" | "deadline"
    result: Optional[Dict[str, Any]] = None
    error_kind: Optional[str] = None
    error_message: str = ""
    exitcode: Optional[int] = None
    elapsed: float = 0.0

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


class WorkerTask:
    """One in-flight worker process computing one request."""

    def __init__(
        self,
        op: str,
        params: Dict[str, Any],
        chaos: Optional[ChaosPlan] = None,
        attempt: int = 0,
    ) -> None:
        ctx = _mp_context()
        self._parent_conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_child_main,
            args=(child_conn, op, params, chaos, attempt),
            daemon=True,
        )
        self.started_at = time.monotonic()
        self.process.start()
        # The child owns its end now; closing ours makes EOF detection
        # work (otherwise the parent's copy keeps the pipe open).
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def fileno(self) -> int:
        """The readable pipe fd (for event-loop registration)."""
        return self._parent_conn.fileno()

    def collect(self) -> TaskOutcome:
        """Read the outcome after the pipe became readable (or EOF)."""
        elapsed = time.monotonic() - self.started_at
        try:
            status, payload = self._parent_conn.recv()
        except (EOFError, OSError):
            self._reap()
            return TaskOutcome(
                status="crash", exitcode=self.process.exitcode, elapsed=elapsed
            )
        self._reap()
        if status == "ok":
            return TaskOutcome(status="ok", result=payload, elapsed=elapsed)
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
        try:
            self.process.kill()
        except (OSError, AttributeError):  # pragma: no cover - defensive
            pass
        self._reap()

    def _reap(self) -> None:
        try:
            self.process.join(timeout=5.0)
        except (OSError, AssertionError):  # pragma: no cover - defensive
            pass
        try:
            self._parent_conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Synchronous driver (tests, benchmarks, local sampling)
    # ------------------------------------------------------------------

    def wait(self, timeout: Optional[float]) -> TaskOutcome:
        """Block until the worker finishes or *timeout* expires."""
        try:
            ready = self._parent_conn.poll(timeout)
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
    """Spawn one worker and wait for it (the non-asyncio entry point).

    This is also how the serve benchmark measures *local* latency: the
    same fork + compute + pipe round-trip the daemon performs, minus
    the socket and envelope — isolating exactly the daemon's overhead.
    """
    return WorkerTask(op, params, chaos=chaos, attempt=attempt).wait(timeout)


def worker_env_note() -> Dict[str, Any]:
    """Startup-log diagnostics about the worker mechanism."""
    return {
        "start_method": _mp_context().get_start_method(),
        "parent_pid": os.getpid(),
    }
