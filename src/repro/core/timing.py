"""The asynchronous timing model.

A QDI asynchronous processor has no clock; each instruction completes
after a number of gate delays that depends on the operation and on the
dynamic state of the pipeline (Section 2).  We model each instruction
class with a gate-delay count (two-word instructions cost an extra fetch,
slow-bus units cost extra bus transfers) and scale the gate delay with
supply voltage.

Calibration comes straight from the paper (Section 4.3):

* the idle-to-active transition is **18 gate delays**, measured as 2.5 ns
  at 1.8 V, 9.8 ns at 0.9 V, and 21.4 ns at 0.6 V -- which pins the gate
  delay at each published voltage;
* the same scaling reproduces the throughput ratios 240 : 61 : 28 MIPS,
  since 240/61 = 3.93 = 9.8/2.5 and 240/28 = 8.57 = 21.4/2.5.

For unpublished voltages the gate delay is interpolated log-log between
the calibrated points (and extrapolated with the boundary slope), which
keeps the model exact at the three published operating points.
"""

import math

from repro.isa.opcodes import InstrClass, Opcode, spec_for

#: Gate delays in the idle->active transition (Section 4.3).
WAKEUP_GATE_DELAYS = 18

#: Calibrated gate delay (seconds) at each published supply voltage.
GATE_DELAY_BY_VOLTAGE = {
    1.8: 2.5e-9 / WAKEUP_GATE_DELAYS,
    0.9: 9.8e-9 / WAKEUP_GATE_DELAYS,
    0.6: 21.4e-9 / WAKEUP_GATE_DELAYS,
}

#: Lowest voltage the model accepts; below this the QDI circuits would be
#: in deep sub-threshold where this interpolation has no support.
MIN_VOLTAGE = 0.4
MAX_VOLTAGE = 2.0

#: Gate-delay counts per instruction class.  Two-word formats already
#: include their second fetch; slow-bus units already include the extra
#: bus transfer through the fast busses (Section 3.1).
GATE_DELAYS_BY_CLASS = {
    InstrClass.NOP: 18,
    InstrClass.EVENT: 20,
    InstrClass.ARITH_REG: 22,
    InstrClass.LOGICAL_REG: 22,
    InstrClass.SHIFT: 22,
    InstrClass.BRANCH: 24,
    InstrClass.JUMP: 24,
    InstrClass.ARITH_IMM: 34,
    InstrClass.LOGICAL_IMM: 34,
    InstrClass.BITFIELD: 36,
    InstrClass.RAND: 30,
    InstrClass.TIMER: 32,
    InstrClass.LOAD: 46,
    InstrClass.STORE: 44,
    InstrClass.IMEM_LOAD: 56,
    InstrClass.IMEM_STORE: 56,
}

#: Extra gate delays when a branch is taken or a two-word jump redirects
#: fetch (the fetch pipeline restarts from a new address).
TAKEN_PENALTY = 6
#: Extra gate delays for the second fetch of two-word jumps.
TWO_WORD_JUMP_EXTRA = 12
#: Extra gate delays for `setaddr` writing the event-handler table.
SETADDR_EXTRA = 10


def gate_delays_for(spec, taken=False):
    """Gate-delay count for one dynamic instance of *spec*."""
    count = GATE_DELAYS_BY_CLASS[spec.instr_class]
    if spec.instr_class == InstrClass.JUMP and spec.two_word:
        count += TWO_WORD_JUMP_EXTRA
    if spec.opcode == Opcode.SETADDR:
        count += SETADDR_EXTRA
    if taken:
        count += TAKEN_PENALTY
    return count


def gate_delay_at(voltage):
    """Gate delay in seconds at *voltage* (log-log interpolation)."""
    if not MIN_VOLTAGE <= voltage <= MAX_VOLTAGE:
        raise ValueError("voltage %.2f outside supported range [%.1f, %.1f]"
                         % (voltage, MIN_VOLTAGE, MAX_VOLTAGE))
    points = sorted(GATE_DELAY_BY_VOLTAGE.items())
    for known_voltage, delay in points:
        if math.isclose(voltage, known_voltage):
            return delay
    log_v = math.log(voltage)
    coords = [(math.log(v), math.log(d)) for v, d in points]
    if log_v <= coords[0][0]:
        (x0, y0), (x1, y1) = coords[0], coords[1]
    elif log_v >= coords[-1][0]:
        (x0, y0), (x1, y1) = coords[-2], coords[-1]
    else:
        for (x0, y0), (x1, y1) in zip(coords, coords[1:]):
            if x0 <= log_v <= x1:
                break
    slope = (y1 - y0) / (x1 - x0)
    return math.exp(y0 + slope * (log_v - x0))


class TimingModel:
    """Per-instruction latency and wakeup latency at a supply voltage."""

    def __init__(self, voltage=0.6):
        self.voltage = voltage
        self._gate_delay = gate_delay_at(voltage)

    @property
    def gate_delay(self):
        """One gate delay, in seconds."""
        return self._gate_delay

    def instruction_delay(self, spec, taken=False):
        """Latency of one instruction, in seconds."""
        return gate_delays_for(spec, taken=taken) * self._gate_delay

    def delay_for_opcode(self, opcode, taken=False):
        return self.instruction_delay(spec_for(opcode), taken=taken)

    @property
    def wakeup_latency(self):
        """Idle-to-active transition time, in seconds (18 gate delays)."""
        return WAKEUP_GATE_DELAYS * self._gate_delay
