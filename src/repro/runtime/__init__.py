"""Synchronous round-based execution engine (the model of Section 2).

* :mod:`repro.runtime.messages` — message typing and size accounting.
* :mod:`repro.runtime.algorithm` — the node-level algorithm API
  (:class:`DistributedAlgorithm`) every algorithm in the package implements,
  including the ``message_stability`` purity contract.
* :mod:`repro.runtime.simulator` — the round engine that couples an adversary
  with an algorithm and records an execution trace; quiescence-aware
  incremental delivery for algorithms declaring the ``"pure"`` contract,
  and the array-kernel path, picked by its ``delivery`` argument alone.
* :mod:`repro.runtime.trace` — :class:`RoundRecord` / :class:`ExecutionTrace`.
* :mod:`repro.runtime.metrics` — per-round message statistics.
* :mod:`repro.runtime.scheduler` — re-exports the wake-up schedules.
"""

from repro.runtime.algorithm import (
    AlgorithmSetup,
    DistributedAlgorithm,
    MESSAGE_STABILITY_LEVELS,
    VOLATILE,
)
from repro.runtime.messages import Message, estimate_bits
from repro.runtime.metrics import RoundMetrics
from repro.runtime.simulator import RoundActivity, Simulator, run_simulation
from repro.runtime.trace import ExecutionTrace, RoundRecord

__all__ = [
    "AlgorithmSetup",
    "DistributedAlgorithm",
    "MESSAGE_STABILITY_LEVELS",
    "Message",
    "RoundActivity",
    "RoundMetrics",
    "Simulator",
    "VOLATILE",
    "estimate_bits",
    "run_simulation",
    "ExecutionTrace",
    "RoundRecord",
]
