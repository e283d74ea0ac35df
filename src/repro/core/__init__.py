"""The SNAP/LE processor core simulator.

This package implements the event-driven asynchronous core of Section 3.1:
instruction fetch with the hardware event queue and event-handler table,
decode, the execution units on the two-level bus hierarchy, the register
file with the r15 message-FIFO mapping, the on-chip IMEM/DMEM banks, and
the quasi-delay-insensitive timing model (variable per-instruction cycle
time, zero switching activity while asleep, 18-gate-delay wakeup).
"""

from repro.core.kernel import Kernel
from repro.core.exceptions import (
    EventQueueOverflow,
    MemoryFault,
    SimulationDeadlock,
    SimulationError,
)
from repro.core.event_queue import EventQueue, EventToken
from repro.core.memory import MemoryBank
from repro.core.lfsr import Lfsr16
from repro.core.regfile import RegisterFile
from repro.core.timing import TimingModel
from repro.core.processor import CoreConfig, SnapProcessor

__all__ = [
    "Kernel",
    "EventQueueOverflow",
    "MemoryFault",
    "SimulationDeadlock",
    "SimulationError",
    "EventQueue",
    "EventToken",
    "MemoryBank",
    "Lfsr16",
    "RegisterFile",
    "TimingModel",
    "CoreConfig",
    "SnapProcessor",
]
