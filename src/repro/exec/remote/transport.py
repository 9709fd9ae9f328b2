"""Remote transports: how dispatcher and workers exchange wire-form lines.

A :class:`Transport` launches a fleet of long-lived worker processes and
returns one :class:`WorkerLink` per worker.  Everything that crosses a link
is a newline-terminated JSON string — chunk requests in the exact
:meth:`~repro.exec.units.Chunk.to_wire` form, responses as
``{"index", "rows", ...}`` — so a transport
never needs to know anything about specs, seeds or rows.  Incoming lines are
pushed, tagged with the worker id, onto the dispatcher's shared inbox queue
by one reader thread per worker; worker death surfaces as a ``None`` line.

Registered transports (``TRANSPORTS``):

``loopback``
    Local subprocesses running ``python -m repro.exec.remote.worker`` over
    stdio pipes.  A genuine process boundary (kill-able, spawn-imported,
    nothing shared), which makes it the test/CI stand-in for a real fleet.
``ssh``
    The same worker loop started on remote hosts via ``ssh host python -m
    repro.exec.remote.worker``.  Hosts are ``host`` or ``host=slots``
    entries; ``slots`` is the per-worker in-flight limit, which is how a
    heterogeneous fleet expresses "this box can take more".

Fault injection (read by the *worker*, see :mod:`repro.exec.remote.worker`)
is deliberately forwarded to the **first worker only**: with
``REPRO_EXEC_WORKER_INTERRUPT_AFTER`` / ``REPRO_EXEC_WORKER_HANG_AFTER`` set,
worker 0 dies or hangs mid-chunk while the rest of the fleet survives —
exactly the one-node failure the dispatcher's re-dispatch path exists for.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.scenarios.registry import Registry

__all__ = [
    "TRANSPORTS",
    "Transport",
    "WORKER_HANG_ENV",
    "WORKER_INTERRUPT_ENV",
    "WorkerLink",
    "parse_hosts",
    "worker_fault_env",
]

#: Remote transports by name (the ``--transport`` / ``execution.transport`` axis).
TRANSPORTS = Registry("remote transport")

#: Hard-exit after N computed units (the worker-side sibling of
#: ``REPRO_EXEC_INTERRUPT_AFTER``; forwarded to worker 0 only).  Defined here
#: rather than in :mod:`repro.exec.remote.worker` so nothing needs to import
#: the worker module — ``python -m repro.exec.remote.worker`` must stay the
#: only thing that executes it.
WORKER_INTERRUPT_ENV = "REPRO_EXEC_WORKER_INTERRUPT_AFTER"

#: Hang forever after N computed units (exercises the timeout detector).
WORKER_HANG_ENV = "REPRO_EXEC_WORKER_HANG_AFTER"

#: Worker-side fault-injection variables (forwarded to worker 0 only).
_FAULT_ENVS = (WORKER_INTERRUPT_ENV, WORKER_HANG_ENV)


def worker_fault_env(worker_index: int) -> dict:
    """The environment a spawned worker should run under.

    Worker 0 inherits the fault-injection variables so tests and the CI
    fabric-smoke job can kill exactly one node; every other worker gets them
    stripped and stays healthy.
    """
    env = dict(os.environ)
    if worker_index != 0:
        for name in _FAULT_ENVS:
            env.pop(name, None)
    return env


def parse_hosts(hosts: Sequence[str]) -> List[Tuple[str, int]]:
    """``["a", "b=4"]`` → ``[("a", 1), ("b", 4)]`` (name, in-flight slots)."""
    parsed: List[Tuple[str, int]] = []
    for entry in hosts:
        name, _, slots_text = str(entry).partition("=")
        name = name.strip()
        if not name:
            raise ConfigurationError(f"empty host in hosts list {list(hosts)!r}")
        slots = 1
        if slots_text:
            try:
                slots = int(slots_text)
            except ValueError:
                slots = 0
            if slots < 1:
                raise ConfigurationError(
                    f"host {entry!r}: slots must be a positive integer "
                    f"(use 'host' or 'host=slots')"
                )
        parsed.append((name, slots))
    return parsed


class WorkerLink:
    """One live worker: a subprocess plus its request pipe and reader thread.

    ``slots`` is the worker's in-flight limit — the dispatcher never has more
    than that many chunks outstanding on the link, which is what lets slow
    and fast fleet members coexist without the slow one becoming a convoy.
    """

    def __init__(
        self,
        worker_id: int,
        name: str,
        process: subprocess.Popen,
        inbox: "queue.Queue",
        slots: int = 1,
    ) -> None:
        self.worker_id = worker_id
        self.name = name
        self.process = process
        self.slots = max(1, int(slots))
        self._inbox = inbox
        self._reader = threading.Thread(
            target=self._pump, name=f"repro-remote-reader-{worker_id}", daemon=True
        )
        self._reader.start()

    def _pump(self) -> None:
        """Forward every stdout line to the inbox; ``None`` marks EOF/death."""
        stream = self.process.stdout
        try:
            for line in iter(stream.readline, ""):
                self._inbox.put((self.worker_id, line))
        except (OSError, ValueError):
            pass
        self._inbox.put((self.worker_id, None))

    def send(self, text: str) -> None:
        """Write one request line (raises ``OSError`` on a broken pipe)."""
        stdin = self.process.stdin
        if stdin is None:
            raise OSError(f"worker {self.name} has no request pipe")
        stdin.write(text + "\n")
        stdin.flush()

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """Hard-stop the worker (idempotent)."""
        if self.process.poll() is None:
            try:
                self.process.kill()
            except OSError:
                pass
        try:
            if self.process.stdin is not None:
                self.process.stdin.close()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerLink({self.name!r}, slots={self.slots}, alive={self.alive()})"


class Transport:
    """Launches worker processes and hands back their links."""

    name = "transport"

    def launch(
        self, max_workers: int, hosts: Optional[Sequence[str]], inbox: "queue.Queue"
    ) -> List[WorkerLink]:
        raise NotImplementedError

    def close(self) -> None:
        """Release transport-level state (links are killed by the dispatcher)."""


#: The worker entry point every transport starts on the far side.
_WORKER_ARGS = ["-u", "-m", "repro.exec.remote.worker"]


@TRANSPORTS.register(
    "loopback", doc="Local worker subprocesses over stdio pipes (tests/CI fleets)."
)
class LoopbackTransport(Transport):
    name = "loopback"

    def launch(
        self, max_workers: int, hosts: Optional[Sequence[str]], inbox: "queue.Queue"
    ) -> List[WorkerLink]:
        if hosts:
            members = parse_hosts(hosts)
        else:
            members = [(f"worker-{i}", 1) for i in range(max(1, int(max_workers)))]
        links: List[WorkerLink] = []
        for index, (name, slots) in enumerate(members):
            process = subprocess.Popen(
                [sys.executable, *_WORKER_ARGS],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=worker_fault_env(index),
            )
            links.append(WorkerLink(index, name, process, inbox, slots=slots))
        return links


@TRANSPORTS.register(
    "ssh", doc="Long-lived workers on remote hosts over ssh (host or host=slots entries)."
)
class SshTransport(Transport):
    """``ssh <host> python -m repro.exec.remote.worker`` per fleet member.

    The remote host only needs the ``repro`` package importable by
    ``remote_python``; nothing is copied over the wire except JSON lines.
    ``BatchMode=yes`` makes a missing key fail fast instead of prompting.
    """

    name = "ssh"

    def __init__(self, *, remote_python: str = "python3") -> None:
        self.remote_python = remote_python

    def command(self, host: str) -> List[str]:
        """The ssh invocation for one fleet member (separated for tests)."""
        worker = " ".join([self.remote_python, *_WORKER_ARGS])
        return ["ssh", "-o", "BatchMode=yes", host, worker]

    def launch(
        self, max_workers: int, hosts: Optional[Sequence[str]], inbox: "queue.Queue"
    ) -> List[WorkerLink]:
        del max_workers  # the fleet is the hosts list, not a local pool width
        if not hosts:
            raise ConfigurationError(
                "the ssh transport needs a hosts list "
                "(--hosts host1,host2=4 or execution.hosts)"
            )
        links: List[WorkerLink] = []
        for index, (host, slots) in enumerate(parse_hosts(hosts)):
            process = subprocess.Popen(
                self.command(host),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=worker_fault_env(index),
            )
            links.append(WorkerLink(index, host, process, inbox, slots=slots))
        return links


def make_transport(name: str, **options) -> Transport:
    """Instantiate the transport registered under ``name``."""
    return TRANSPORTS.get(name)(**options)
