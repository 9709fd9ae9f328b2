"""Wake-up schedules (re-exported from :mod:`repro.dynamics.wakeup`).

The schedules conceptually belong to the adversary (it controls ``V_r``), but
users of the runtime typically reach for them when configuring an experiment,
so they are re-exported here for discoverability.
"""

from repro.dynamics.wakeup import (
    AllAwake,
    StaggeredWakeup,
    UniformRandomWakeup,
    WakeupSchedule,
)

__all__ = [
    "WakeupSchedule",
    "AllAwake",
    "StaggeredWakeup",
    "UniformRandomWakeup",
]
