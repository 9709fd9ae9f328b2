"""The fault-tolerant dispatcher: chunks out, rows back, failures absorbed.

:class:`RemoteBackend` (registered as ``remote``) is a normal execution
backend — ``submit_batch(chunks)`` yields ``(chunk_index, rows)`` in
completion order — whose workers live on the far side of a
:class:`~repro.exec.remote.transport.Transport`.  On top of the plain wire
contract it adds what a real fleet needs:

* **Fault tolerance.**  Every dispatched piece of work carries a deadline.
  A worker that dies (EOF on its pipe, process exit) or blows its deadline
  (a wedged node) is killed and dropped from the fleet, and its in-flight
  work is re-dispatched to the survivors with capped retries and
  exponential backoff — free and byte-identical, because units are pure
  functions of ``(spec, seed)``.  Only when the whole fleet is gone (or a
  piece exhausts its retries) does the backend raise
  :class:`~repro.exec.backends.BackendError`, which the runner answers with
  the serial fallback — completed, journalled work is never recomputed.
* **Heterogeneous fleets.**  Each worker has an in-flight ``slots`` limit
  (``host=slots`` in the hosts list); dispatch fills idle capacity in
  worker order and never convoys fast members behind slow ones.
* **Adaptive chunk re-sizing.**  Worker responses carry their wall time;
  an EMA of observed per-unit cost re-sizes outgoing work so every dispatch
  lands near ``target_seconds`` — many tiny units coalesce upstream (the
  runner's chunking), while a chunk that would monopolise a worker for
  minutes is split across the fleet.  Splitting is internal: rows are
  re-assembled per original chunk before they are yielded, so the runner's
  journal and ordering logic see exactly the chunks it built.
* **Worker-side phase timings and event counts.**  Responses carry the
  worker's ``{name: (seconds, count)}`` recorder table — the form every local backend
  gets from :func:`~repro.exec.units.execute_chunk` — and the dispatcher
  replays them into the ambient collector once their chunk is complete,
  so a chunk recomputed by the serial fallback is never counted twice.
"""

from __future__ import annotations

import itertools
import json
import queue
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec.backends import BACKENDS, Backend, BackendError
from repro.exec.remote.transport import TRANSPORTS, WorkerLink
from repro.exec.stats import PhaseTotals, RateEstimator, replay_phases
from repro.exec.units import Chunk, Row
from repro.obs.trace import EVENT_SCHEMA, emit

__all__ = ["RemoteBackend"]

#: Seconds between inbox polls (liveness/deadline checks happen on this tick).
_TICK_SECONDS = 0.1


@dataclass
class _Task:
    """One dispatchable piece of work: a slice of an original chunk."""

    task_id: int
    chunk: Chunk  # the runner's chunk this slice belongs to
    offset: int  # seed offset inside the chunk
    seeds: Tuple[int, ...]
    attempts: int = 0
    not_before: float = 0.0  # monotonic time before which dispatch waits (backoff)

    def wire(self) -> str:
        """The slice as an ordinary wire-form chunk, keyed by ``task_id``."""
        return Chunk(
            index=self.task_id,
            start=self.chunk.start + self.offset,
            spec_key=self.chunk.spec_key,
            spec_dict=self.chunk.spec_dict,
            seeds=self.seeds,
        ).to_wire()


@dataclass
class _Assembly:
    """Row re-assembly state of one original chunk."""

    chunk: Chunk
    rows: List[Optional[Row]] = field(default_factory=list)
    remaining: int = 0
    #: Phase totals of the absorbed pieces, replayed when the chunk completes.
    phases: List[PhaseTotals] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rows = [None] * len(self.chunk.seeds)
        self.remaining = len(self.chunk.seeds)

    def absorb(self, offset: int, rows: Sequence[Row], phases: PhaseTotals) -> bool:
        """Place ``rows`` at ``offset``; True when the chunk is complete."""
        self.phases.append(phases)
        for i, row in enumerate(rows):
            if self.rows[offset + i] is None:
                self.remaining -= 1
            self.rows[offset + i] = row
        return self.remaining == 0


@dataclass
class _WorkerState:
    link: WorkerLink
    ready: bool = False
    inflight: Dict[int, float] = field(default_factory=dict)  # task_id -> deadline
    last_seen: float = field(default_factory=time.monotonic)
    next_ping: int = 0
    pong_deadline: Optional[float] = None  # outstanding ping; any line clears it


@BACKENDS.register(
    "remote",
    doc="Transport-fed worker fleet with re-dispatch, heartbeats and adaptive chunking.",
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
        target_seconds: float = 2.0,
        adaptive: bool = True,
        cost_estimator: Optional[RateEstimator] = None,
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
        self._target_seconds = target_seconds
        self._adaptive = adaptive
        self._cost = cost_estimator if cost_estimator is not None else RateEstimator()
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
        for task_id in list(state.inflight):
            state.inflight.pop(task_id, None)
            task = tasks.pop(task_id, None)
            if task is None:
                continue
            task.attempts += 1
            if task.attempts > self._max_retries:
                raise BackendError(
                    f"chunk {task.chunk.index} (offset {task.offset}, "
                    f"{len(task.seeds)} units) failed on {task.attempts} workers; "
                    f"giving up after {self._max_retries} retries"
                )
            backoff = self._backoff_base * 2 ** (task.attempts - 1)
            task.not_before = time.monotonic() + backoff
            emit(
                "redispatch",
                task=task.task_id,
                chunk=task.chunk.index,
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

    # -- adaptive sizing ----------------------------------------------------

    def _deadline_for(self, units: int) -> float:
        """When a dispatched task is declared wedged."""
        if self._task_timeout is not None:
            return time.monotonic() + self._task_timeout
        cost = self._cost.seconds_per_unit
        estimate = (cost or 1.0) * units
        return time.monotonic() + max(60.0, 10.0 * estimate)

    def _sized(self, task: _Task, task_ids: Iterator[int]) -> List[_Task]:
        """Split ``task`` so each piece lands near ``target_seconds``."""
        cost = self._cost.seconds_per_unit
        if not self._adaptive or cost is None or cost <= 0 or len(task.seeds) <= 1:
            return [task]
        per_piece = max(1, int(self._target_seconds / cost))
        if len(task.seeds) <= per_piece * 1.5:
            return [task]
        pieces = []
        for start in range(0, len(task.seeds), per_piece):
            pieces.append(
                _Task(
                    task_id=next(task_ids),
                    chunk=task.chunk,
                    offset=task.offset + start,
                    seeds=task.seeds[start : start + per_piece],
                    attempts=task.attempts,
                    not_before=task.not_before,
                )
            )
        emit(
            "split",
            chunk=task.chunk.index,
            pieces=len(pieces),
            per_piece=per_piece,
        )
        return pieces

    # -- dispatch -----------------------------------------------------------

    def _fill(
        self, backlog: List[_Task], tasks: Dict[int, _Task], task_ids: Iterator[int]
    ) -> None:
        """Assign dispatchable backlog to idle capacity, splitting as sized."""
        now = time.monotonic()
        for state in self._workers.values():
            if not state.ready or not state.link.alive():
                continue
            while len(state.inflight) < state.link.slots and backlog:
                picked = next((t for t in backlog if t.not_before <= now), None)
                if picked is None:
                    return  # everything dispatchable is backing off
                backlog.remove(picked)
                sized = self._sized(picked, task_ids)
                if len(sized) > 1:
                    backlog.extend(sized[1:])
                task = sized[0]
                try:
                    state.link.send(task.wire())
                except OSError:
                    backlog.extend(sized[:1])
                    break  # the EOF/deadline path reaps this worker
                tasks[task.task_id] = task
                state.inflight[task.task_id] = self._deadline_for(len(task.seeds))
                emit(
                    "dispatch",
                    task=task.task_id,
                    chunk=task.chunk.index,
                    units=len(task.seeds),
                    worker=state.link.name,
                    attempt=task.attempts,
                )

    def _absorb_result(
        self,
        state: _WorkerState,
        message: dict,
        tasks: Dict[int, _Task],
        assemblies: Dict[int, _Assembly],
    ) -> Optional[Tuple[int, List[Row]]]:
        """Fold one worker response in; returns a completed chunk, if any."""
        task = tasks.pop(int(message["index"]), None)
        if task is None:
            return None  # a re-dispatched duplicate from a slow worker
        state.inflight.pop(task.task_id, None)
        rows = list(message["rows"])
        if len(rows) != len(task.seeds):
            raise BackendError(
                f"worker {state.link.name} returned {len(rows)} rows "
                f"for a {len(task.seeds)}-unit dispatch"
            )
        seconds = message.get("seconds")
        if isinstance(seconds, (int, float)) and seconds > 0:
            self._cost.observe_cost(len(rows), float(seconds))
        phases = {
            str(phase): (float(phase_seconds), int(events))
            for phase, (phase_seconds, events) in (message.get("phases") or {}).items()
        }
        emit(
            "chunk_result",
            task=task.task_id,
            chunk=task.chunk.index,
            worker=state.link.name,
            units=len(rows),
            seconds=float(seconds) if isinstance(seconds, (int, float)) else 0.0,
            timings={
                name: seconds
                for name, (seconds, _) in phases.items()
                if name not in EVENT_SCHEMA  # events are counts, not timings
            },
        )
        assembly = assemblies[task.chunk.index]
        if assembly.absorb(task.offset, rows, phases):
            del assemblies[task.chunk.index]
            for totals in assembly.phases:
                replay_phases(totals)
            return task.chunk.index, assembly.rows  # type: ignore[return-value]
        return None

    def submit_batch(self, chunks: Sequence[Chunk]) -> Iterator[Tuple[int, List[Row]]]:
        self.start()
        # Split-task ids must never collide with the initial task ids (which
        # reuse chunk indices) — and chunk indices need not be 0..len-1 when a
        # caller hands us a surviving subset of an earlier batch.
        task_ids = itertools.count(max((c.index for c in chunks), default=-1) + 1)
        assemblies = {c.index: _Assembly(c) for c in chunks}
        backlog: List[_Task] = [
            _Task(task_id=c.index, chunk=c, offset=0, seeds=tuple(c.seeds)) for c in chunks
        ]
        tasks: Dict[int, _Task] = {}
        started = time.monotonic()
        while assemblies:
            live = self._live_workers()
            if not live:
                raise BackendError(
                    f"remote fleet exhausted: every worker died "
                    f"({len(assemblies)} chunks incomplete)"
                )
            if (
                not any(w.ready for w in live)
                and time.monotonic() - started > self._ready_timeout
            ):
                raise BackendError("remote workers did not become ready in time")
            self._fill(backlog, tasks, task_ids)
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
            completed = self._absorb_result(state, message, tasks, assemblies)
            if completed is not None:
                yield completed
