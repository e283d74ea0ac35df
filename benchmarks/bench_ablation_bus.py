"""Ablation: the two-level bus hierarchy (Section 3.1).

SNAP/LE puts the commonly used execution units on fast busses and the
rare ones behind slow busses, "dramatically decreasing the amount of
capacitance on the fast busses".  The ablation compares the default
hierarchical calibration against a *flat* bus, where every unit sees
the full bus capacitance (every transfer pays the slow-bus cost).

The flat-bus calibration and the ablation runner live in
:mod:`repro.bench.ablations` so the fidelity scorecard can regenerate
the same measurements.
"""

import time

import pytest

from repro.bench.ablations import bus_ablation, flat_bus_calibration
from repro.bench.reporting import dump_results, format_table
from repro.energy import EnergyModel
from repro.isa.opcodes import Opcode, spec_for
from repro.obs import Observability


def test_bus_hierarchy_ablation(benchmark):
    obs = Observability()
    started = time.perf_counter()
    results = benchmark.pedantic(bus_ablation, kwargs={"obs": obs},
                                 rounds=1, iterations=1)
    dump_results("ablation_bus", results, metrics=obs.metrics.snapshot(),
                 wall_time_s=time.perf_counter() - started)
    h_epi = results["hierarchical_epi"]
    f_epi = results["flat_epi"]

    rows = [
        ["hierarchical (paper design)", "%.1f" % (h_epi * 1e12)],
        ["flat single bus", "%.1f" % (f_epi * 1e12)],
        ["energy saved", "%.1f%%" % (100 * (1 - h_epi / f_epi))],
    ]
    print()
    print(format_table(["bus organization", "pJ/ins @0.6V"], rows,
                       title="Ablation: two-level bus hierarchy"))

    # The hierarchy saves energy on the common-case instruction mix.
    assert f_epi > h_epi
    assert (f_epi - h_epi) / f_epi > 0.03


def test_slow_bus_penalty_only_hits_rare_units():
    """Sanity: the fast-bus units are unaffected by the slow-bus cost."""
    default = EnergyModel(voltage=1.8)
    flat = EnergyModel(voltage=1.8, calibration=flat_bus_calibration())
    # Common instructions get more expensive under the flat bus.
    for opcode in (Opcode.ADD, Opcode.LD, Opcode.SLL, Opcode.BEQZ):
        assert (flat.compute_instruction_energy(spec_for(opcode)).total
                > default.compute_instruction_energy(spec_for(opcode)).total)
    # Rare slow-bus instructions cost the same either way.
    for opcode in (Opcode.LDI, Opcode.RAND, Opcode.SCHEDLO):
        spec = spec_for(opcode)
        assert flat.compute_instruction_energy(spec).total == pytest.approx(
            default.compute_instruction_energy(spec).total)
