"""Register naming, disassembly, and opcode metadata tests."""

import pytest

from repro.isa import (
    Instruction,
    Opcode,
    disassemble_words,
    encode,
    register_name,
    register_number,
)
from repro.isa.opcodes import InstrClass, Unit, all_specs, spec_for
from repro.isa.registers import REG_LINK, REG_MSG, REG_STACK


class TestRegisters:
    def test_aliases(self):
        assert register_number("sp") == REG_STACK == 13
        assert register_number("lr") == REG_LINK == 14
        assert register_number("msg") == REG_MSG == 15

    def test_round_trip(self):
        for number in range(16):
            assert register_number(register_name(number)) == number

    def test_alias_rendering(self):
        assert register_name(15, prefer_alias=True) == "msg"
        assert register_name(15) == "r15"

    @pytest.mark.parametrize("bad", ["r16", "x1", "", "r-1", "16"])
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError):
            register_number(bad)

    def test_invalid_number(self):
        with pytest.raises(ValueError):
            register_name(16)


class TestOpcodeMetadata:
    def test_fast_bus_assignment_matches_paper(self):
        """Section 3.1: adder, logic, DMEM load-store, shifter and
        jump/branch on the fast busses; the rest on slow busses."""
        assert spec_for(Opcode.ADD).on_fast_bus
        assert spec_for(Opcode.AND).on_fast_bus
        assert spec_for(Opcode.LD).on_fast_bus
        assert spec_for(Opcode.SLL).on_fast_bus
        assert spec_for(Opcode.BEQZ).on_fast_bus
        assert not spec_for(Opcode.LDI).on_fast_bus
        assert not spec_for(Opcode.SCHEDLO).on_fast_bus
        assert not spec_for(Opcode.RAND).on_fast_bus

    def test_instruction_classes(self):
        assert spec_for(Opcode.ADD).instr_class == InstrClass.ARITH_REG
        assert spec_for(Opcode.ADDI).instr_class == InstrClass.ARITH_IMM
        assert spec_for(Opcode.MOVI).instr_class == InstrClass.LOGICAL_IMM
        assert spec_for(Opcode.LD).instr_class == InstrClass.LOAD
        assert spec_for(Opcode.BFS).instr_class == InstrClass.BITFIELD

    def test_units(self):
        assert spec_for(Opcode.RAND).unit == Unit.LFSR
        assert spec_for(Opcode.SCHEDHI).unit == Unit.TIMER
        assert spec_for(Opcode.DONE).unit == Unit.EVENT

    def test_store_reads_rd(self):
        """Stores read the value from rd (needed for r15 pop counting)."""
        assert spec_for(Opcode.ST).reads_rd
        assert not spec_for(Opcode.ST).writes_rd

    def test_every_spec_has_class_and_unit(self):
        for spec in all_specs():
            assert isinstance(spec.instr_class, InstrClass)
            assert isinstance(spec.unit, Unit)

    def test_int_and_member_find_the_same_spec(self):
        for opcode in Opcode:
            assert spec_for(int(opcode)) is spec_for(opcode)

    @pytest.mark.parametrize(
        "value", sorted(set(range(64)) - set(Opcode)) + [64, -1])
    def test_unassigned_opcode_raises_value_error(self, value):
        with pytest.raises(ValueError):
            spec_for(value)


class TestDisassembly:
    def test_instruction_text_round_trips_through_assembler(self):
        from repro.asm import assemble
        samples = [
            Instruction(Opcode.ADD, rd=1, rs=2),
            Instruction(Opcode.SLL, rd=3, rs=7),
            Instruction(Opcode.MOVI, rd=4, rs=0, imm=0xBEEF),
            Instruction(Opcode.LD, rd=5, rs=6, imm=12),
            Instruction(Opcode.BFS, rd=1, rs=2, imm=0x0FF0),
            Instruction(Opcode.BNEZ, rs=2, imm=-3),
            Instruction(Opcode.JMP, imm=0x0100),
            Instruction(Opcode.DONE),
        ]
        source = "\n".join(ins.text() for ins in samples)
        module = assemble(source)
        expected = [word for ins in samples for word in encode(ins)]
        assert module.text == expected

    def test_disassemble_words_handles_data(self):
        words = encode(Instruction(Opcode.ADD, rd=1, rs=2)) + [0xFFFF]
        lines = disassemble_words(words)
        assert "add" in lines[0]
        assert ".word 0xffff" in lines[1]
