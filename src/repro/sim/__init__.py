"""A discrete-event simulator with a fluid multi-core CPU model.

The paper measures wall-clock behaviour of four hardware platforms; we
replace the hardware with virtual time. The design splits into:

* :mod:`repro.sim.engine` — a classic event queue (virtual clock,
  scheduling, cancellation);
* :mod:`repro.sim.cpu` — machines, tasks, and jobs: a generalized
  processor-sharing model with strict priority classes (interrupt >
  kernel > user), per-core SMT contention, and continuous (rate-based)
  loads for cross-traffic;
* :mod:`repro.sim.monitor` — per-second, per-task CPU accounting (the
  data behind the paper's Figures 3, 4, and 6) and served-vs-offered
  tracking for forwarding-rate curves.

The co-simulation loop — advance fluid CPU state to the next completion
or event, whichever is first — lives in :class:`repro.sim.cpu.World`.
"""

from repro.sim.cpu import Job, Machine, Priority, Task, World
from repro.sim.engine import EventHandle, Simulator
from repro.sim.monitor import CpuMonitor, RateMonitor

__all__ = [
    "CpuMonitor",
    "EventHandle",
    "Job",
    "Machine",
    "Priority",
    "RateMonitor",
    "Simulator",
    "Task",
    "World",
]
