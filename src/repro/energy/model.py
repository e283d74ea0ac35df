"""Per-instruction energy computation."""

from dataclasses import dataclass

from repro.energy.calibration import DEFAULT_CALIBRATION, NOMINAL_VOLTAGE
from repro.isa.opcodes import InstrClass, Unit

#: Buckets used by the Section 4.4 core-energy-distribution analysis.
CORE_BUCKETS = ("datapath", "fetch", "decode", "mem_if", "misc")

_MEMORY_CLASSES = (InstrClass.LOAD, InstrClass.STORE,
                   InstrClass.IMEM_LOAD, InstrClass.IMEM_STORE)


def voltage_scale(voltage, nominal=NOMINAL_VOLTAGE):
    """Dynamic-energy scale factor at *voltage*: (V/Vnom)**2.

    The paper's own measurements follow CV^2 closely: Table 1 reports
    ~218 pJ/ins at 1.8 V, ~55 at 0.9 V (x0.25 = (0.9/1.8)^2) and ~24 at
    0.6 V (x0.110 vs (0.6/1.8)^2 = 0.111).
    """
    if voltage <= 0:
        raise ValueError("voltage must be positive")
    return (voltage / nominal) ** 2


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one dynamic instruction, split by component (joules)."""

    imem: float
    dmem: float
    fetch: float
    decode: float
    datapath: float
    mem_if: float
    misc: float

    @property
    def memory(self):
        """Energy in the memory arrays (the paper's 'other half')."""
        return self.imem + self.dmem

    @property
    def core(self):
        """Energy in the processor core, excluding the memory arrays."""
        return self.fetch + self.decode + self.datapath + self.mem_if + self.misc

    @property
    def total(self):
        return self.memory + self.core

    def bucket(self, name):
        return getattr(self, name)


class EnergyModel:
    """Computes per-instruction energy at a given supply voltage."""

    def __init__(self, voltage=0.6, calibration=DEFAULT_CALIBRATION,
                 leakage_power=0.0):
        self.voltage = voltage
        self.calibration = calibration
        #: Static (leakage) power in watts; 0 models the ideal QDI sleep
        #: state, nonzero supports the paper's future-work leakage study.
        self.leakage_power = leakage_power
        self._scale = voltage_scale(voltage) * 1e-12  # pJ -> J at voltage

    def compute_instruction_energy(self, spec):
        """Compute the :class:`EnergyBreakdown` for *spec* from scratch."""
        cal = self.calibration
        words = 2 if spec.two_word else 1
        extra_words = words - 1

        imem = cal.imem_read_pj * words
        if spec.instr_class in (InstrClass.IMEM_LOAD, InstrClass.IMEM_STORE):
            imem += cal.imem_read_pj  # the data access also hits the IMEM array

        dmem = cal.dmem_access_pj if spec.instr_class in (
            InstrClass.LOAD, InstrClass.STORE) else 0.0

        fetch = cal.fetch_base_pj + cal.fetch_extra_word_pj * extra_words
        decode = cal.decode_pj

        datapath = cal.unit_pj[spec.unit]
        if not spec.on_fast_bus:
            datapath += cal.slow_bus_pj

        is_mem_op = spec.instr_class in _MEMORY_CLASSES
        mem_if = cal.mem_if_mem_op_pj if is_mem_op else cal.mem_if_other_pj

        misc = cal.misc_base_pj + cal.misc_extra_word_pj * extra_words

        return EnergyBreakdown(
            imem=imem * self._scale,
            dmem=dmem * self._scale,
            fetch=fetch * self._scale,
            decode=decode * self._scale,
            datapath=datapath * self._scale,
            mem_if=mem_if * self._scale,
            misc=misc * self._scale,
        )

    @property
    def wakeup_energy(self):
        """Energy of one idle->active transition (joules)."""
        return self.calibration.wakeup_pj * self._scale

    @property
    def event_token_energy(self):
        """Energy of inserting+removing one event token (joules)."""
        return self.calibration.event_token_pj * self._scale

    def idle_energy(self, duration):
        """Static energy burned while asleep for *duration* seconds."""
        return self.leakage_power * duration
