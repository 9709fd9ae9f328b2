"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch every failure mode of the simulator / framework with a single except
clause while still being able to distinguish configuration problems from
protocol violations detected at runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class RegistryError(ConfigurationError):
    """Raised on unknown or duplicate keys in a scenario component registry."""


class TopologyError(ReproError):
    """Raised when a topology or dynamic-graph operation is invalid.

    Examples: referencing a node outside the potential node set, providing a
    shrinking awake-node set (the model requires ``V_0 ⊆ V_1 ⊆ …``), or adding
    a self-loop (the model uses simple graphs).
    """


class AdversaryError(ReproError):
    """Raised when an adversary produces an illegal graph sequence."""


class SimulationError(ReproError):
    """Raised when the round engine detects an inconsistent execution."""


class AlgorithmError(ReproError):
    """Raised when a distributed algorithm violates its own interface.

    For instance a :class:`~repro.core.interfaces.DynamicAlgorithm` that
    deletes part of its input (violating property A.1) raises this error when
    run with runtime checks enabled.
    """


class VerificationError(ReproError):
    """Raised by property verifiers when a trace violates a stated guarantee."""
