"""Memoized assembly: ``assemble`` serves each ``(source, name)`` pair
from a bounded memo, hands every caller its own copy, and never
memoizes a failure; nodes built from the same modules share line rows,
IMEM words and decoded instructions."""

import pytest

from repro.asm import AsmError, Symbol, assemble, link
from repro.asm import assembler
from repro.asm.assembler import MEMO_SIZE, _Assembler, _assemble_once
from repro.core import SnapProcessor
from repro.isa.encoding import EncodingError, decode_words
from repro.netstack.drivers import build_aodv_node
from repro.network.experiments import build_convergecast
from repro.node.node import SensorNode
from repro.scenarios import CATALOGUE

SOURCE = """
start:  movi r1, value
        ld   r2, 0(r1)
.loop:  subi r2, 1
        bnez r2, .loop
        jmp  start
.data
value:  .word 5
"""


@pytest.fixture
def runs(monkeypatch):
    """Empty the memo and record the ``(source, name)`` of every
    uncached assembly from here on."""
    _assemble_once.cache_clear()
    seen = []
    run = _Assembler.run

    def counted(self):
        seen.append((self._source, self._name))
        return run(self)

    monkeypatch.setattr(_Assembler, "run", counted)
    return seen


def _programs(sim):
    nodes = [sim] if isinstance(sim, SensorNode) else sim.nodes.values()
    return [node.processor.program for node in nodes]


@pytest.mark.parametrize("scenario", sorted(CATALOGUE))
def test_catalogue_memo_hits_link_like_uncached_modules(scenario, runs,
                                                        monkeypatch):
    CATALOGUE[scenario](True)
    modules = list(runs)
    assert modules and len(set(modules)) == len(modules)

    memo_sim, _ = CATALOGUE[scenario](True)
    assert runs == modules, "a rebuild must assemble nothing new"
    for source, name in modules:
        assert assemble(source, name) == _Assembler(source, name).run()

    del runs[:]
    monkeypatch.setattr(assembler, "_assemble_once",
                        lambda source, name: _Assembler(source, name).run())
    plain_sim, _ = CATALOGUE[scenario](True)
    assert sorted(set(runs)) == sorted(modules)
    assert _programs(memo_sim) == _programs(plain_sim)


def test_mutating_a_module_leaves_the_memo_clean():
    clean = _Assembler(SOURCE, "mut").run()
    first = assemble(SOURCE, "mut")
    assert first == clean
    first.text[0] ^= 0xFFFF
    first.text.extend([0] * 8)
    first.data.append(7)
    first.symbols["start"] = Symbol(name="start", section="data", offset=9)
    first.symbols["extra"] = Symbol(name="extra", section="text", offset=0)
    first.relocations.clear()
    first.lines.pop()
    second = assemble(SOURCE, "mut")
    assert second == clean
    assert second is not first


def test_failed_assembly_is_never_memoized(runs):
    for _ in range(2):
        with pytest.raises(AsmError,
                           match="^bad:2: unknown mnemonic") as error:
            assemble("nop\nbogus r1\n", "bad")
        assert error.value.source_name == "bad"
    assert len(runs) == 2


def test_same_source_under_two_names(runs):
    one = assemble(SOURCE, "one")
    two = assemble(SOURCE, "two")
    assert (one.name, two.name) == ("one", "two")
    assert {entry.file for entry in one.lines} == {"one"}
    assert {entry.file for entry in two.lines} == {"two"}
    assert one.text == two.text
    assert len(runs) == 2


def test_memo_stays_within_its_bound(runs):
    for index in range(MEMO_SIZE + 10):
        assemble("movi r1, %d\n" % index, "bound")
    assert _assemble_once.cache_info().currsize == MEMO_SIZE
    assemble("movi r1, %d\n" % (MEMO_SIZE + 9), "bound")
    assert len(runs) == MEMO_SIZE + 10
    assemble("movi r1, 0\n", "bound")
    assert len(runs) == MEMO_SIZE + 11, "the oldest entry was evicted"


def test_nodes_share_line_rows_words_and_instructions():
    two, three = build_aodv_node(2), build_aodv_node(3)
    assert two.line_table == three.line_table
    assert all(a is b for a, b in zip(two.line_table, three.line_table))
    cores = []
    for program in (two, three):
        core = SnapProcessor()
        core.load(program)
        cores.append(core)
    pc = two.address_of("mac_rx_handler")
    for _ in range(16):
        assert cores[0].imem.peek(pc) is cores[1].imem.peek(pc)
        slots = [core._predecode(pc) for core in cores]
        assert slots[0][0] is slots[1][0]
        pc += slots[0][2]


def test_line_rows_follow_a_mutated_module():
    module = assemble(SOURCE, "rows")
    shared = link([module]).line_table
    module.lines[0] = module.lines[0]._replace(line=99)
    mutated = link([module]).line_table
    assert mutated[0][2] == 99 and shared[0][2] != 99
    assert mutated[1:] == shared[1:]


def test_decode_errors_are_never_memoized():
    for _ in range(2):
        with pytest.raises(EncodingError, match="nonzero operand bits"):
            decode_words(0x0001)  # nop with an operand bit set


def test_convergecast_32_assembles_each_distinct_source_once(runs):
    build_convergecast(chain_length=32)
    assert len(runs) <= 36
    assert len(set(runs)) == len(runs)
