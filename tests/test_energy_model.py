"""Energy-model tests against the paper's published aggregates."""

import pytest

from repro.energy import EnergyMeter, EnergyModel, voltage_scale
from repro.isa.opcodes import InstrClass, Opcode, spec_for


def _epi_pj(voltage, opcode):
    model = EnergyModel(voltage=voltage)
    return model.compute_instruction_energy(spec_for(opcode)).total * 1e12


class TestVoltageScale:
    def test_published_ratios(self):
        """Table 1: ~218 -> ~55 -> ~24 pJ/ins tracks (V/1.8)^2."""
        assert voltage_scale(1.8) == pytest.approx(1.0)
        assert voltage_scale(0.9) == pytest.approx(0.25)
        assert voltage_scale(0.6) == pytest.approx(1 / 9, rel=1e-6)

    def test_invalid_voltage(self):
        with pytest.raises(ValueError):
            voltage_scale(0.0)


class TestEnergyTiers:
    """Section 4.4: three distinct tiers -- one-word register ops,
    two-word immediate ops, and memory ops."""

    def test_tier_ordering(self):
        arith_reg = _epi_pj(1.8, Opcode.ADD)
        arith_imm = _epi_pj(1.8, Opcode.ADDI)
        load = _epi_pj(1.8, Opcode.LD)
        assert arith_reg < arith_imm < load

    def test_under_300pj_at_nominal(self):
        """'the SNAP/LE core consumes under 300pJ per instruction'.

        Figure 4 covers 'the more commonly executed instructions'; the
        rare slow-bus IMEM load/store (triple memory-array traffic) may
        exceed the figure slightly, so it is checked at a looser bound.
        """
        for opcode in Opcode:
            spec = spec_for(opcode)
            limit = 320 if spec.instr_class in (InstrClass.IMEM_LOAD,
                                                InstrClass.IMEM_STORE) else 300
            assert _epi_pj(1.8, opcode) < limit

    def test_many_types_under_25pj_at_low_voltage(self):
        """'many instruction types using less than 25pJ/ins' at 0.6V."""
        cheap = [op for op in Opcode if _epi_pj(0.6, op) < 25]
        assert len(cheap) >= len(list(Opcode)) // 2

    def test_all_under_75pj_at_low_voltage(self):
        """'less than 75pJ/ins' at 0.6V."""
        for opcode in Opcode:
            assert _epi_pj(0.6, opcode) < 75

    def test_memory_about_half_of_load_energy(self):
        """Section 4.4: about half the per-instruction energy is memory."""
        model = EnergyModel(voltage=1.8)
        breakdown = model.compute_instruction_energy(spec_for(Opcode.LD))
        fraction = breakdown.memory / breakdown.total
        assert 0.45 <= fraction <= 0.75

    def test_shift_is_in_cheapest_tier(self):
        assert _epi_pj(1.8, Opcode.SLL) == pytest.approx(
            _epi_pj(1.8, Opcode.ADD), rel=0.15)


class TestBreakdown:
    def test_components_sum_to_total(self):
        model = EnergyModel(voltage=0.9)
        for opcode in (Opcode.ADD, Opcode.LD, Opcode.RAND, Opcode.JMP):
            b = model.compute_instruction_energy(spec_for(opcode))
            assert b.total == pytest.approx(b.memory + b.core)
            assert b.core == pytest.approx(
                b.fetch + b.decode + b.datapath + b.mem_if + b.misc)

    def test_slow_bus_units_pay_bus_energy(self):
        model = EnergyModel(voltage=1.8)
        ld = model.compute_instruction_energy(spec_for(Opcode.LD))
        ldi = model.compute_instruction_energy(spec_for(Opcode.LDI))
        assert ldi.datapath > ld.datapath


class TestMeter:
    def test_record_and_aggregate(self):
        model = EnergyModel(voltage=1.8)
        meter = EnergyMeter()
        for opcode in (Opcode.ADD, Opcode.ADD, Opcode.LD):
            spec = spec_for(opcode)
            meter.record_instruction(
                spec, model.compute_instruction_energy(spec), 1e-8,
                handler_tag="h")
        assert meter.instructions == 3
        assert meter.cycles == 4  # add, add, ld(2 words)
        assert meter.by_class[InstrClass.ARITH_REG].count == 2
        assert meter.by_handler["h"].instructions == 3
        assert meter.total_energy > 0

    def test_core_fractions_sum_to_one(self):
        model = EnergyModel(voltage=1.8)
        meter = EnergyMeter()
        spec = spec_for(Opcode.ADD)
        meter.record_instruction(
            spec, model.compute_instruction_energy(spec), 1e-8)
        assert sum(meter.core_fractions().values()) == pytest.approx(1.0)

    def test_idle_energy_zero_without_leakage(self):
        """QDI: no switching while asleep -> no dynamic idle energy."""
        model = EnergyModel(voltage=0.6)
        assert model.idle_energy(100.0) == 0.0

    def test_leakage_when_configured(self):
        model = EnergyModel(voltage=0.6, leakage_power=1e-9)
        assert model.idle_energy(10.0) == pytest.approx(1e-8)

    def test_reset(self):
        meter = EnergyMeter()
        meter.record_wakeup(1e-12)
        meter.reset()
        assert meter.total_energy == 0.0
        assert meter.wakeups == 0

    def test_average_mips(self):
        model = EnergyModel(voltage=1.8)
        meter = EnergyMeter()
        spec = spec_for(Opcode.ADD)
        meter.record_instruction(
            spec, model.compute_instruction_energy(spec), 1e-6)
        assert meter.average_mips() == pytest.approx(1.0)
