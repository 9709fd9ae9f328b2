"""The fault-tolerant dispatcher: chunks out, rows back, failures absorbed.

:class:`RemoteBackend` (registered as ``remote``) is a normal execution
backend — ``submit_batch(chunks)`` yields ``(chunk_index, rows)`` in
completion order — whose workers live on the far side of a
:class:`~repro.exec.remote.transport.Transport`.  On top of the plain wire
contract it adds what a real fleet needs:

* **Fault tolerance.**  Every dispatched chunk carries a deadline.
  A worker that dies (EOF on its pipe, process exit) or blows its deadline
  (a wedged node) is killed and dropped from the fleet, and its in-flight
  chunks are re-dispatched to the survivors with capped retries and
  exponential backoff — free and byte-identical, because units are pure
  functions of ``(spec, seed)``.  Only when the whole fleet is gone (or a
  chunk exhausts its retries) does the backend raise
  :class:`~repro.exec.backends.BackendError`, which the runner answers with
  the serial fallback — completed, journalled work is never recomputed.
* **Heterogeneous fleets.**  Each worker has an in-flight ``slots`` limit
  (``host=slots`` in the hosts list); dispatch fills idle capacity in
  worker order and never convoys fast members behind slow ones.
* **The runner's chunks, unchanged.**  Every chunk is dispatched whole, as
  one wire request, and yielded as soon as its one response arrives — the
  same chunking the ``serial`` and ``process`` backends execute.
* **Worker-side phase timings and event counts.**  Responses carry the
  worker's ``{name: (seconds, count)}`` recorder table — the form every local backend
  gets from :func:`~repro.exec.units.execute_chunk` — and the dispatcher
  replays them into the ambient collector when it absorbs the chunk, so
  only absorbed results count: a dead attempt contributes nothing, and a
  chunk the serial fallback recomputes was never absorbed here.
"""

from __future__ import annotations

import json
import queue
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec.backends import BACKENDS, Backend, BackendError
from repro.exec.remote.transport import TRANSPORTS, WorkerLink
from repro.exec.stats import replay_phases
from repro.exec.units import Chunk, Row
from repro.obs.trace import EVENT_SCHEMA, emit

__all__ = ["RemoteBackend"]

#: Seconds between inbox polls (liveness/deadline checks happen on this tick).
_TICK_SECONDS = 0.1

#: Smoothing factor of the worker-reported per-unit cost (deadline sizing).
_COST_ALPHA = 0.3


@dataclass
class _Task:
    """One of the runner's chunks, with its dispatch history."""

    chunk: Chunk
    attempts: int = 0
    not_before: float = 0.0  # monotonic time before which dispatch waits (backoff)


@dataclass
class _WorkerState:
    link: WorkerLink
    ready: bool = False
    inflight: Dict[int, float] = field(default_factory=dict)  # chunk index -> deadline
    last_seen: float = field(default_factory=time.monotonic)
    next_ping: int = 0
    pong_deadline: Optional[float] = None  # outstanding ping; any line clears it


@BACKENDS.register(
    "remote",
    doc="Transport-fed worker fleet with re-dispatch, heartbeats and per-worker slots.",
)
class RemoteBackend(Backend):
    """Dispatch chunks to a worker fleet across a pluggable transport."""

    name = "remote"

    #: Flags :func:`repro.exec.backends.make_backend` to pass policy options.
    accepts_options = True

    def __init__(
        self,
        max_workers: int,
        *,
        transport: str = "loopback",
        hosts: Optional[Sequence[str]] = None,
        ready_timeout: float = 120.0,
        task_timeout: Optional[float] = None,
        heartbeat_interval: float = 5.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
    ) -> None:
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        self._max_workers = max(1, int(max_workers))
        self._transport = TRANSPORTS.get(transport)()
        self._hosts = list(hosts) if hosts else None
        self._ready_timeout = ready_timeout
        self._task_timeout = task_timeout
        self._heartbeat_interval = heartbeat_interval
        self._max_retries = int(max_retries)
        self._backoff_base = backoff_base
        #: EMA of worker-reported seconds per unit; ``None`` before any report.
        self._unit_cost: Optional[float] = None
        self._inbox: "queue.Queue" = queue.Queue()
        self._workers: Dict[int, _WorkerState] = {}

    # -- fleet lifecycle ----------------------------------------------------

    def start(self) -> None:
        if self._workers:
            return
        links = self._transport.launch(self._max_workers, self._hosts, self._inbox)
        self._workers = {link.worker_id: _WorkerState(link) for link in links}

    def close(self) -> None:
        for state in self._workers.values():
            try:
                state.link.send(json.dumps({"stop": True}))
            except OSError:
                pass
        for state in self._workers.values():
            state.link.kill()
        self._workers = {}
        self._transport.close()

    # -- fleet bookkeeping --------------------------------------------------

    def _live_workers(self) -> List[_WorkerState]:
        return [w for w in self._workers.values() if w.link.alive()]

    def _lose_worker(
        self,
        state: _WorkerState,
        tasks: Dict[int, _Task],
        backlog: List[_Task],
        reason: str = "died",
    ):
        """Kill ``state``'s worker and requeue whatever it was running."""
        state.link.kill()
        self._workers.pop(state.link.worker_id, None)
        emit(
            "worker_lost",
            worker=state.link.name,
            reason=reason,
            inflight=len(state.inflight),
        )
        for index in list(state.inflight):
            state.inflight.pop(index, None)
            task = tasks.pop(index, None)
            if task is None:
                continue
            task.attempts += 1
            if task.attempts > self._max_retries:
                raise BackendError(
                    f"chunk {index} ({len(task.chunk.seeds)} units) failed on "
                    f"{task.attempts} workers; giving up after {self._max_retries} retries"
                )
            backoff = self._backoff_base * 2 ** (task.attempts - 1)
            task.not_before = time.monotonic() + backoff
            emit(
                "redispatch",
                chunk=index,
                attempt=task.attempts,
                backoff=round(backoff, 6),
            )
            backlog.append(task)

    def _check_deadlines(self, tasks: Dict[int, _Task], backlog: List[_Task]) -> None:
        now = time.monotonic()
        for state in list(self._workers.values()):
            if not state.link.alive():
                self._lose_worker(state, tasks, backlog, reason="died")
            elif state.inflight and any(deadline < now for deadline in state.inflight.values()):
                self._lose_worker(state, tasks, backlog, reason="deadline")  # a wedged node

    def _heartbeat(self, tasks: Dict[int, _Task], backlog: List[_Task]) -> None:
        """Ping idle ready workers so a silently dead ssh link surfaces.

        A ping leaves a ``pong_deadline`` on the worker; any inbound line
        clears it.  A worker whose deadline lapses with no traffic at all is
        wedged and reaped immediately, instead of being pinged forever.
        """
        now = time.monotonic()
        for state in list(self._workers.values()):
            if not state.ready or state.inflight:
                continue
            if state.pong_deadline is not None:
                if now >= state.pong_deadline:
                    self._lose_worker(state, tasks, backlog, reason="missed-pong")
                continue
            if now - state.last_seen >= self._heartbeat_interval:
                state.next_ping += 1
                try:
                    state.link.send(json.dumps({"ping": state.next_ping}))
                except OSError:
                    continue  # the deadline/EOF path reaps it
                emit("ping", worker=state.link.name)
                state.pong_deadline = now + max(self._heartbeat_interval, 10.0)

    # -- dispatch -----------------------------------------------------------

    def _deadline_for(self, units: int) -> float:
        """When a dispatched chunk is declared wedged."""
        if self._task_timeout is not None:
            return time.monotonic() + self._task_timeout
        estimate = (self._unit_cost or 1.0) * units
        return time.monotonic() + max(60.0, 10.0 * estimate)

    def _observe_cost(self, units: int, seconds: float) -> None:
        """Blend a worker's reported ``seconds`` for ``units`` into the cost EMA."""
        if units > 0 and seconds > 0:
            sample = seconds / units
            previous = self._unit_cost
            self._unit_cost = (
                sample if previous is None else previous + _COST_ALPHA * (sample - previous)
            )

    def _fill(self, backlog: List[_Task], tasks: Dict[int, _Task]) -> None:
        """Assign dispatchable backlog to idle capacity."""
        now = time.monotonic()
        for state in self._workers.values():
            if not state.ready or not state.link.alive():
                continue
            while len(state.inflight) < state.link.slots and backlog:
                task = next((t for t in backlog if t.not_before <= now), None)
                if task is None:
                    return  # everything dispatchable is backing off
                try:
                    state.link.send(task.chunk.to_wire())
                except OSError:
                    break  # the EOF/deadline path reaps this worker
                backlog.remove(task)
                index = task.chunk.index
                tasks[index] = task
                state.inflight[index] = self._deadline_for(len(task.chunk.seeds))
                emit(
                    "dispatch",
                    chunk=index,
                    units=len(task.chunk.seeds),
                    worker=state.link.name,
                    attempt=task.attempts,
                )

    def _absorb_result(
        self, state: _WorkerState, message: dict, tasks: Dict[int, _Task]
    ) -> Optional[Tuple[int, List[Row]]]:
        """Fold one worker response in; returns the finished chunk, if any."""
        task = tasks.pop(int(message["index"]), None)
        if task is None:
            return None  # a re-dispatched duplicate from a slow worker
        index = task.chunk.index
        state.inflight.pop(index, None)
        rows = list(message["rows"])
        if len(rows) != len(task.chunk.seeds):
            raise BackendError(
                f"worker {state.link.name} returned {len(rows)} rows "
                f"for a {len(task.chunk.seeds)}-unit chunk"
            )
        seconds = message.get("seconds")
        seconds = float(seconds) if isinstance(seconds, (int, float)) else 0.0
        self._observe_cost(len(rows), seconds)
        phases = {
            str(phase): (float(phase_seconds), int(events))
            for phase, (phase_seconds, events) in (message.get("phases") or {}).items()
        }
        emit(
            "chunk_result",
            chunk=index,
            worker=state.link.name,
            units=len(rows),
            seconds=seconds,
            timings={
                name: phase_seconds
                for name, (phase_seconds, _) in phases.items()
                if name not in EVENT_SCHEMA  # events are counts, not timings
            },
        )
        replay_phases(phases)
        return index, rows

    def submit_batch(self, chunks: Sequence[Chunk]) -> Iterator[Tuple[int, List[Row]]]:
        self.start()
        backlog: List[_Task] = [_Task(chunk) for chunk in chunks]
        tasks: Dict[int, _Task] = {}  # in flight, by chunk index
        remaining = len(chunks)
        started = time.monotonic()
        while remaining:
            live = self._live_workers()
            if not live:
                raise BackendError(
                    f"remote fleet exhausted: every worker died "
                    f"({remaining} chunks incomplete)"
                )
            if (
                not any(w.ready for w in live)
                and time.monotonic() - started > self._ready_timeout
            ):
                raise BackendError("remote workers did not become ready in time")
            self._fill(backlog, tasks)
            try:
                worker_id, line = self._inbox.get(timeout=_TICK_SECONDS)
            except queue.Empty:
                self._check_deadlines(tasks, backlog)
                self._heartbeat(tasks, backlog)
                continue
            state = self._workers.get(worker_id)
            if state is None:
                continue  # a message from an already-reaped worker
            if line is None:
                self._lose_worker(state, tasks, backlog, reason="eof")
                continue
            state.last_seen = time.monotonic()
            state.pong_deadline = None  # any line is proof of life
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                self._lose_worker(state, tasks, backlog, reason="garbled")
                continue
            if message.get("ready"):
                state.ready = True
                continue
            if "pong" in message:
                continue
            if "error" in message:
                raise BackendError(
                    f"remote worker {state.link.name} failed: {message['error']}"
                )
            finished = self._absorb_result(state, message, tasks)
            if finished is not None:
                remaining -= 1
                yield finished
