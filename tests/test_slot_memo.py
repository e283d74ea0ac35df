"""The predecode slot memo: every fast-path core in a process shares one
slot per ``(instruction words, operating point)``, bit-transparently,
within the bound :data:`repro.core.processor.SLOT_MEMO_SIZE`; the
reference engine never touches it."""

import dataclasses

import pytest

from repro.asm import build
from repro.bench.ablations import SWEEP_LOOP
from repro.core import CoreConfig, SnapProcessor
from repro.core import processor as processor_module
from repro.core.processor import SLOT_MEMO_SIZE
from repro.energy.calibration import DEFAULT_CALIBRATION
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.network.experiments import build_convergecast
from repro.sim.checkpoint import meter_digest

_SMC_SOURCE = """
boot:
    movi r5, patch
    movi r7, %(word_add)d
    movi r2, 5
    movi r3, 7
    sti r7, 0(r5)
patch:
    mov r1, r0
    halt
"""


def _smc_program():
    word_add = encode(Instruction(Opcode.ADD, rd=2, rs=3))[0]
    return build(_SMC_SOURCE % {"word_add": word_add})


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty slot memo for the duration of one test."""
    fresh = {}
    monkeypatch.setattr(processor_module, "_SLOT_MEMO", fresh)
    return fresh


def _run(program, **config):
    core = SnapProcessor(config=CoreConfig(**config))
    core.load(program)
    core.run()
    return core


def _slots(core):
    return {pc: slot for pc, slot in enumerate(core._predec)
            if slot is not None}


def test_repeated_loads_are_bit_transparent(memo):
    program = build(SWEEP_LOOP)
    baseline = meter_digest(_run(program, fast_path=False))
    assert not memo
    cold = _run(program)
    assert memo
    warm = [_run(program) for _ in range(2)]
    for core in [cold] + warm:
        assert meter_digest(core) == baseline
    for core in warm:
        assert all(slot is _slots(cold)[pc]
                   for pc, slot in _slots(core).items())


def test_voltages_never_share_a_slot(memo):
    program = build(SWEEP_LOOP)
    low, high = _run(program, voltage=0.6), _run(program, voltage=1.8)
    low_slots, high_slots = _slots(low), _slots(high)
    assert set(low_slots) == set(high_slots)
    for pc, slot in low_slots.items():
        assert slot is not high_slots[pc]
        assert slot[4] != high_slots[pc][4]     # not-taken delay
    assert len(memo) == 2 * len(low_slots)
    assert meter_digest(high) == meter_digest(
        _run(program, voltage=1.8, fast_path=False))


def test_calibrations_differing_in_one_field_never_share_a_slot(memo):
    program = build(SWEEP_LOOP)
    perturbed = dataclasses.replace(
        DEFAULT_CALIBRATION, decode_pj=DEFAULT_CALIBRATION.decode_pj + 1.0)
    default = _run(program)
    other = _run(program, calibration=perturbed)
    default_slots, other_slots = _slots(default), _slots(other)
    for pc, slot in default_slots.items():
        assert slot is not other_slots[pc]
        assert slot[6] != other_slots[pc][6]    # total energy
    assert meter_digest(other) == meter_digest(
        _run(program, calibration=perturbed, fast_path=False))


def test_self_modifying_code_leaves_other_cores_correct(memo):
    program = _smc_program()
    baseline = _run(program, fast_path=False)
    assert baseline.regs.peek(2) == 12  # the patched add executed
    patch = program.address_of("patch")
    # A second core predecodes the unpatched program up front ...
    second = SnapProcessor()
    second.load(program)
    pc = 0
    while pc < len(program.imem):
        pc += second._predecode(pc)[2]
    assert second._predec[patch][0].opcode is Opcode.MOV
    # ... and keeps its slots while the first core patches its own IMEM.
    first = _run(program)
    assert first._predec[patch][0].opcode is Opcode.ADD
    assert second._predec[patch][0].opcode is Opcode.MOV
    second.run()
    for core in (first, second):
        assert core.regs.peek(2) == 12
        assert meter_digest(core) == meter_digest(baseline)


def test_reference_engine_never_touches_the_memo(memo):
    core = _run(build(SWEEP_LOOP), fast_path=False)
    assert core._predec is None
    assert not memo


def test_memo_stays_within_its_bound(memo):
    core = SnapProcessor()
    movi = encode(Instruction(Opcode.MOVI, rd=1, rs=0, imm=0))[0]
    core.imem.poke(0, movi)
    for value in range(SLOT_MEMO_SIZE + 10):
        core.imem.poke(1, value)    # drops the two-word slot at 0
        assert core._predecode(0)[0].imm == value
    assert len(memo) == SLOT_MEMO_SIZE
    assert (movi, 0, core._op_key) not in memo, "the oldest was evicted"
    assert (movi, SLOT_MEMO_SIZE + 9, core._op_key) in memo


def test_eviction_is_bit_transparent(memo, monkeypatch):
    program = build(SWEEP_LOOP)
    baseline = meter_digest(_run(program, fast_path=False))
    monkeypatch.setattr(processor_module, "SLOT_MEMO_SIZE", 2)
    for voltage in (0.6, 1.8, 0.6):
        core = _run(program, voltage=voltage)
        assert len(memo) <= 2
    assert meter_digest(core) == baseline


def test_convergecast_32_holds_one_slot_per_key(memo):
    net = build_convergecast(chain_length=32)
    net.run(until=0.5)
    slots, keys = set(), set()
    for node in net.nodes.values():
        core = node.processor
        for pc, slot in _slots(core).items():
            slots.add(id(slot))
            keys.add(tuple(core.imem.peek(pc + offset)
                           for offset in range(slot[2])) + (core._op_key,))
    assert len(slots) <= len(keys) == len(memo)
    assert sum(len(_slots(node.processor))
               for node in net.nodes.values()) > 10 * len(slots)
