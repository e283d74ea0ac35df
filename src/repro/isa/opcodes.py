"""Opcode table for the SNAP ISA.

Each opcode carries static metadata used across the tool-chain and the
simulator: its binary encoding format, the instruction class used for
energy/timing accounting (the classes in the paper's Figure 4), the
execution unit that performs it, and whether that unit sits on the fast or
slow bus of SNAP/LE's two-level bus hierarchy (paper, Section 3.1).
"""

import enum
from dataclasses import dataclass


class Format(enum.Enum):
    """Binary encoding formats.

    * ``N``  -- no operands; one word.
    * ``R``  -- register/register; one word (``rs`` doubles as a 4-bit
      shift amount for the immediate-shift opcodes).
    * ``B``  -- compare-register-to-zero branch with a 6-bit signed word
      offset; one word.
    * ``RI`` -- register/register plus a 16-bit immediate; two words.
    * ``J``  -- absolute 16-bit target address; two words.
    """

    N = "n"
    R = "r"
    B = "b"
    RI = "ri"
    J = "j"


class InstrClass(enum.Enum):
    """Instruction classes reported in the paper's Figure 4."""

    ARITH_REG = "Arith Reg"
    ARITH_IMM = "Arith Imm"
    LOGICAL_REG = "Logical Reg"
    LOGICAL_IMM = "Logical Imm"
    SHIFT = "Shift"
    LOAD = "Load"
    STORE = "Store"
    IMEM_LOAD = "IMem Load"
    IMEM_STORE = "IMem Store"
    BRANCH = "Branch"
    JUMP = "Jump"
    BITFIELD = "Bitfield"
    RAND = "Rand"
    TIMER = "Timer"
    EVENT = "Event"
    NOP = "Nop"


class Unit(enum.Enum):
    """Execution units of the SNAP/LE core (paper, Section 3.1)."""

    ADDER = "adder"
    LOGIC = "logic"
    SHIFTER = "shifter"
    DMEM = "dmem-ls"
    IMEM = "imem-ls"
    JUMP = "jump-branch"
    LFSR = "lfsr"
    TIMER = "timer-if"
    EVENT = "event"
    NONE = "none"


#: Units attached to the fast busses; everything else rides the slow busses
#: through the fast ones (Section 3.1: adder, logic unit, DMEM load-store,
#: shifter and jump/branch are the commonly used units and sit on the fast
#: busses).
FAST_BUS_UNITS = frozenset(
    {Unit.ADDER, Unit.LOGIC, Unit.SHIFTER, Unit.DMEM, Unit.JUMP, Unit.NONE}
)


class Opcode(enum.IntEnum):
    """6-bit primary opcodes."""

    NOP = 0x00
    DONE = 0x01
    HALT = 0x02  # simulation extension: stop the simulator
    SETADDR = 0x03

    ADD = 0x04
    ADDC = 0x05
    SUB = 0x06
    SUBC = 0x07

    AND = 0x08
    OR = 0x09
    XOR = 0x0A
    NOT = 0x0B
    MOV = 0x0C

    SLL = 0x0D
    SRL = 0x0E
    SRA = 0x0F
    SLLV = 0x10
    SRLV = 0x11
    SRAV = 0x12

    RAND = 0x13
    SEED = 0x14

    SCHEDHI = 0x15
    SCHEDLO = 0x16
    CANCEL = 0x17

    JR = 0x18
    JALR = 0x19

    BEQZ = 0x1A
    BNEZ = 0x1B
    BLTZ = 0x1C
    BGEZ = 0x1D

    MOVI = 0x20
    ADDI = 0x21
    SUBI = 0x22
    ANDI = 0x23
    ORI = 0x24
    XORI = 0x25

    LD = 0x26
    ST = 0x27
    LDI = 0x28
    STI = 0x29

    BFS = 0x2A

    JMP = 0x2C
    JAL = 0x2D


@dataclass(frozen=True)
class OpcodeSpec:
    """Static description of one opcode."""

    opcode: "Opcode"
    mnemonic: str
    format: Format
    instr_class: InstrClass
    unit: Unit
    #: True when ``rd`` is read as a source operand (destructive ALU form,
    #: stores, coprocessor ops that read rd, ...).
    reads_rd: bool
    #: True when ``rs`` is read as a source operand.
    reads_rs: bool
    #: True when ``rd`` is written with a result.
    writes_rd: bool

    @property
    def two_word(self):
        """Two-word instructions carry a 16-bit immediate/address word."""
        return self.format in (Format.RI, Format.J)

    @property
    def on_fast_bus(self):
        return self.unit in FAST_BUS_UNITS


def _spec(opcode, fmt, cls, unit, reads_rd, reads_rs, writes_rd):
    return OpcodeSpec(
        opcode=opcode,
        mnemonic=opcode.name.lower(),
        format=fmt,
        instr_class=cls,
        unit=unit,
        reads_rd=reads_rd,
        reads_rs=reads_rs,
        writes_rd=writes_rd,
    )


_SPECS = {
    Opcode.NOP: _spec(Opcode.NOP, Format.N, InstrClass.NOP, Unit.NONE, False, False, False),
    Opcode.DONE: _spec(Opcode.DONE, Format.N, InstrClass.EVENT, Unit.EVENT, False, False, False),
    Opcode.HALT: _spec(Opcode.HALT, Format.N, InstrClass.NOP, Unit.NONE, False, False, False),
    Opcode.SETADDR: _spec(Opcode.SETADDR, Format.R, InstrClass.EVENT, Unit.EVENT, True, True, False),
    Opcode.ADD: _spec(Opcode.ADD, Format.R, InstrClass.ARITH_REG, Unit.ADDER, True, True, True),
    Opcode.ADDC: _spec(Opcode.ADDC, Format.R, InstrClass.ARITH_REG, Unit.ADDER, True, True, True),
    Opcode.SUB: _spec(Opcode.SUB, Format.R, InstrClass.ARITH_REG, Unit.ADDER, True, True, True),
    Opcode.SUBC: _spec(Opcode.SUBC, Format.R, InstrClass.ARITH_REG, Unit.ADDER, True, True, True),
    Opcode.AND: _spec(Opcode.AND, Format.R, InstrClass.LOGICAL_REG, Unit.LOGIC, True, True, True),
    Opcode.OR: _spec(Opcode.OR, Format.R, InstrClass.LOGICAL_REG, Unit.LOGIC, True, True, True),
    Opcode.XOR: _spec(Opcode.XOR, Format.R, InstrClass.LOGICAL_REG, Unit.LOGIC, True, True, True),
    Opcode.NOT: _spec(Opcode.NOT, Format.R, InstrClass.LOGICAL_REG, Unit.LOGIC, False, True, True),
    Opcode.MOV: _spec(Opcode.MOV, Format.R, InstrClass.LOGICAL_REG, Unit.LOGIC, False, True, True),
    Opcode.SLL: _spec(Opcode.SLL, Format.R, InstrClass.SHIFT, Unit.SHIFTER, True, False, True),
    Opcode.SRL: _spec(Opcode.SRL, Format.R, InstrClass.SHIFT, Unit.SHIFTER, True, False, True),
    Opcode.SRA: _spec(Opcode.SRA, Format.R, InstrClass.SHIFT, Unit.SHIFTER, True, False, True),
    Opcode.SLLV: _spec(Opcode.SLLV, Format.R, InstrClass.SHIFT, Unit.SHIFTER, True, True, True),
    Opcode.SRLV: _spec(Opcode.SRLV, Format.R, InstrClass.SHIFT, Unit.SHIFTER, True, True, True),
    Opcode.SRAV: _spec(Opcode.SRAV, Format.R, InstrClass.SHIFT, Unit.SHIFTER, True, True, True),
    Opcode.RAND: _spec(Opcode.RAND, Format.R, InstrClass.RAND, Unit.LFSR, False, False, True),
    Opcode.SEED: _spec(Opcode.SEED, Format.R, InstrClass.RAND, Unit.LFSR, True, False, False),
    Opcode.SCHEDHI: _spec(Opcode.SCHEDHI, Format.R, InstrClass.TIMER, Unit.TIMER, True, True, False),
    Opcode.SCHEDLO: _spec(Opcode.SCHEDLO, Format.R, InstrClass.TIMER, Unit.TIMER, True, True, False),
    Opcode.CANCEL: _spec(Opcode.CANCEL, Format.R, InstrClass.TIMER, Unit.TIMER, True, False, False),
    Opcode.JR: _spec(Opcode.JR, Format.R, InstrClass.JUMP, Unit.JUMP, True, False, False),
    Opcode.JALR: _spec(Opcode.JALR, Format.R, InstrClass.JUMP, Unit.JUMP, True, False, False),
    Opcode.BEQZ: _spec(Opcode.BEQZ, Format.B, InstrClass.BRANCH, Unit.JUMP, False, True, False),
    Opcode.BNEZ: _spec(Opcode.BNEZ, Format.B, InstrClass.BRANCH, Unit.JUMP, False, True, False),
    Opcode.BLTZ: _spec(Opcode.BLTZ, Format.B, InstrClass.BRANCH, Unit.JUMP, False, True, False),
    Opcode.BGEZ: _spec(Opcode.BGEZ, Format.B, InstrClass.BRANCH, Unit.JUMP, False, True, False),
    Opcode.MOVI: _spec(Opcode.MOVI, Format.RI, InstrClass.LOGICAL_IMM, Unit.LOGIC, False, False, True),
    Opcode.ADDI: _spec(Opcode.ADDI, Format.RI, InstrClass.ARITH_IMM, Unit.ADDER, True, False, True),
    Opcode.SUBI: _spec(Opcode.SUBI, Format.RI, InstrClass.ARITH_IMM, Unit.ADDER, True, False, True),
    Opcode.ANDI: _spec(Opcode.ANDI, Format.RI, InstrClass.LOGICAL_IMM, Unit.LOGIC, True, False, True),
    Opcode.ORI: _spec(Opcode.ORI, Format.RI, InstrClass.LOGICAL_IMM, Unit.LOGIC, True, False, True),
    Opcode.XORI: _spec(Opcode.XORI, Format.RI, InstrClass.LOGICAL_IMM, Unit.LOGIC, True, False, True),
    Opcode.LD: _spec(Opcode.LD, Format.RI, InstrClass.LOAD, Unit.DMEM, False, True, True),
    Opcode.ST: _spec(Opcode.ST, Format.RI, InstrClass.STORE, Unit.DMEM, True, True, False),
    Opcode.LDI: _spec(Opcode.LDI, Format.RI, InstrClass.IMEM_LOAD, Unit.IMEM, False, True, True),
    Opcode.STI: _spec(Opcode.STI, Format.RI, InstrClass.IMEM_STORE, Unit.IMEM, True, True, False),
    Opcode.BFS: _spec(Opcode.BFS, Format.RI, InstrClass.BITFIELD, Unit.LOGIC, True, True, True),
    Opcode.JMP: _spec(Opcode.JMP, Format.J, InstrClass.JUMP, Unit.JUMP, False, False, False),
    Opcode.JAL: _spec(Opcode.JAL, Format.J, InstrClass.JUMP, Unit.JUMP, False, False, False),
}

_BY_MNEMONIC = {spec.mnemonic: spec for spec in _SPECS.values()}


def spec_for(opcode):
    """Return the :class:`OpcodeSpec` for an :class:`Opcode` or its int
    value; raises ``ValueError`` for an unassigned value.

    ``Opcode`` is an ``IntEnum``, so an int finds its member's spec
    directly; only a miss pays for the enum conversion that raises.
    """
    try:
        return _SPECS[opcode]
    except KeyError:
        return _SPECS[Opcode(opcode)]


def spec_for_mnemonic(mnemonic):
    """Look up a spec by assembly mnemonic; raises ``KeyError`` if unknown."""
    return _BY_MNEMONIC[mnemonic.lower()]


def all_specs():
    """All opcode specs, in opcode order."""
    return [spec for _, spec in sorted(_SPECS.items())]


def mnemonics():
    """All known mnemonics."""
    return sorted(_BY_MNEMONIC)
