"""The remote worker loop: wire-form chunks in, rows + phase totals out.

Run as ``python -m repro.exec.remote.worker`` (every transport starts exactly
this), the worker reads newline-delimited JSON requests from stdin and writes
newline-delimited JSON responses to stdout:

* ``{"ready": true, "pid": ...}`` — sent once after the package has imported,
  so the dispatcher can separate cold-start from dispatch latency;
* :meth:`~repro.exec.units.Chunk.to_wire` request →
  ``{"index", "rows", "units", "seconds", "phases"}`` response, where
  ``seconds`` is the worker-side wall time of the chunk (what the
  dispatcher's wedged-worker deadline scales with) and ``phases`` is the
  units' recorder table ``{name: [seconds, count]}`` (setup / rounds /
  metrics phases and the ``unit_begin`` / ``unit_end`` event counts) — the
  same form :func:`~repro.exec.units.execute_chunk` returns to the local
  backends.  Spec parsing and the base-topology build fall inside the timed
  window (the build in its unit's ``unit_setup``), as on every backend;
* ``{"ping": k}`` → ``{"pong": k}`` — the dispatcher's idle heartbeat;
* ``{"stop": true}`` → clean exit.

Unit-level failures are reported as ``{"index", "error"}`` — the dispatcher
raises a transport error and the runner's serial fallback re-raises the real
traceback.

Fault injection (how tests and CI kill a *worker*, not the dispatcher):

``REPRO_EXEC_WORKER_INTERRUPT_AFTER=N``
    Hard-exit (``os._exit``) after N units have been computed — mid-chunk,
    before any response is written, like a SIGKILL'd node.
``REPRO_EXEC_WORKER_HANG_AFTER=N``
    Sleep forever after N units — a wedged node the dispatcher can only
    detect by timeout.

Transports forward both variables to worker 0 only (see
:func:`repro.exec.remote.transport.worker_fault_env`), so a multi-worker
fleet loses exactly one node and the re-dispatch path is exercised for real.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional, TextIO

from repro.exec.remote.transport import WORKER_HANG_ENV, WORKER_INTERRUPT_ENV
from repro.exec.stats import collect_stats
from repro.exec.units import Chunk, execute_unit

__all__ = ["WORKER_HANG_ENV", "WORKER_INTERRUPT_ENV", "main"]

#: Exit code of an injected worker kill (distinguishable from real crashes).
_INJECTED_EXIT_CODE = 23


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else None


def _send(out: TextIO, payload: dict) -> None:
    out.write(json.dumps(payload) + "\n")
    out.flush()


def _maybe_inject_fault(executed_units: int) -> None:
    """Fire the configured worker-side fault once ``executed_units`` is reached."""
    interrupt_after = _env_int(WORKER_INTERRUPT_ENV)
    if interrupt_after is not None and executed_units >= interrupt_after:
        os._exit(_INJECTED_EXIT_CODE)  # noqa: SLF001 - simulating a killed node
    hang_after = _env_int(WORKER_HANG_ENV)
    if hang_after is not None and executed_units >= hang_after:
        while True:  # a wedged node: alive but silent
            time.sleep(3600)


def main(stdin: Optional[TextIO] = None, stdout: Optional[TextIO] = None) -> int:
    """The worker loop (parameterised streams for in-process tests)."""
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    executed = 0
    _send(out, {"ready": True, "pid": os.getpid()})
    for line in stdin:
        if not line.strip():
            continue
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            _send(out, {"error": f"unparseable request: {exc}"})
            continue
        if message.get("stop"):
            return 0
        if "ping" in message:
            _send(out, {"pong": message["ping"]})
            continue
        try:
            chunk = Chunk.from_wire(line)
            rows = []
            started = time.perf_counter()
            with collect_stats() as stats:
                for seed in chunk.seeds:
                    rows.append(execute_unit(chunk.spec_dict, seed, chunk.spec_key))
                    executed += 1
                    _maybe_inject_fault(executed)
            response = {
                "index": chunk.index,
                "rows": rows,
                "units": len(rows),
                "seconds": time.perf_counter() - started,
                "phases": stats.phase_totals(),
            }
            _send(out, response)
        except Exception as exc:  # noqa: BLE001 - reported to the dispatcher
            _send(out, {"index": message.get("index"), "error": f"{type(exc).__name__}: {exc}"})
        # KeyboardInterrupt/SystemExit propagate: signals must stop the worker.
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
