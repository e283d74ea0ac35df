"""Fast-path engine tests: predecode invalidation (self-modifying code),
stall accounting, and bit-identity against the reference interpreter.

The batched fast path (``CoreConfig(fast_path=True)``, the default) is
only admissible because it is indistinguishable from the per-event
reference engine in every architecturally visible way: register and
memory state, every meter accumulator at full float precision, and the
exact per-instruction timestamps seen by trace and observability hooks.
These tests pin that equivalence on the paths where the engines diverge
most -- self-modifying code, r15 stalls, and timer-driven sleep/wake.
"""

import pytest

from repro.asm import build
from repro.core import CoreConfig, SnapProcessor
from repro.core.processor import Mode
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.netstack import build_blink_app
from repro.node import SensorNode
from repro.obs import MemorySink, Observability
from repro.sim.checkpoint import meter_digest

ENGINES = [True, False]


def make_processor(source, fast_path=True, **config_kwargs):
    config_kwargs.setdefault("max_instructions", 1_000_000)
    proc = SnapProcessor(config=CoreConfig(voltage=0.6, fast_path=fast_path,
                                           **config_kwargs))
    proc.load(build(source))
    return proc


# -- stall accounting ---------------------------------------------------------


class TestStallAccounting:
    @pytest.mark.parametrize("fast_path", ENGINES)
    def test_stalled_instruction_charges_one_imem_read(self, fast_path):
        """Regression: a stalled r15 read used to charge its IMEM fetch
        on every retry, double-counting ``imem.reads`` (and the derived
        IMEM access statistics) for each stall cycle.  One retired
        dynamic instruction is exactly one fetch of its words."""
        proc = make_processor("mov r1, r15\nst r1, 0(r0)\ndone\n",
                              fast_path=fast_path)
        proc.kernel.schedule(1e-3, proc.mcp._deliver, 0x1234)
        proc.run()
        assert proc.dmem.peek(0) == 0x1234
        assert proc.asleep
        # mov (1 word) + st (2 words) + done (1 word), each charged once
        # even though the mov stalled and retried after the delivery.
        assert proc.imem.reads == 4

    @pytest.mark.parametrize("fast_path", ENGINES)
    def test_stall_leaves_pc_at_stalled_instruction(self, fast_path):
        proc = make_processor("movi r1, 1\nmov r2, r15\ndone\n",
                              fast_path=fast_path)
        proc.kernel.schedule(1.0, proc.mcp._deliver, 7)
        proc.run(until=0.5)
        assert proc.mode == Mode.STALLED
        assert proc.pc == 2  # movi is two words; the mov stalled at 2
        proc.run()
        assert proc.regs.peek(2) == 7


# -- self-modifying code through the predecode cache --------------------------

# Two passes over a patch site: pass 1 executes the original instruction
# (populating the decode cache for that pc), then rewrites it with sti;
# pass 2 must execute the *new* instruction -- exactly what a cold decode
# of the patched image would run.

PATCH_ONE_WORD = """
boot:
    movi r2, 5
    movi r3, 7
    movi r6, 2
    movi r4, %(word)d
    movi r5, patch
loop:
patch:
    mov r1, r0
    sti r4, 0(r5)
    subi r6, 1
    bnez r6, loop
    done
"""

PATCH_SECOND_WORD = """
boot:
    movi r6, 2
    movi r4, 99
    movi r5, patch
loop:
patch:
    movi r1, 11
    sti r4, 1(r5)
    subi r6, 1
    bnez r6, loop
    done
"""


class TestSelfModifyingCode:
    @pytest.mark.parametrize("fast_path", ENGINES)
    def test_sti_rewrites_one_word_instruction(self, fast_path):
        """``mov r1, r0`` at the patch site becomes ``add r2, r3``; the
        second pass must run the new instruction, not the cached one."""
        add_word = encode(Instruction(Opcode.ADD, rd=2, rs=3))[0]
        proc = make_processor(PATCH_ONE_WORD % {"word": add_word},
                              fast_path=fast_path)
        proc.run()
        assert proc.asleep
        assert proc.regs.peek(1) == 0    # pass 1: the original mov r1, r0
        assert proc.regs.peek(2) == 12   # pass 2: add r2, r3 (5 + 7)

    @pytest.mark.parametrize("fast_path", ENGINES)
    def test_sti_rewrites_second_word_of_two_word_instruction(self,
                                                              fast_path):
        """Patching only the immediate word of a cached ``movi`` must
        invalidate the slot at the *previous* address (the opcode word
        did not change)."""
        proc = make_processor(PATCH_SECOND_WORD, fast_path=fast_path)
        proc.run()
        assert proc.asleep
        assert proc.regs.peek(1) == 99   # pass 2 saw the patched immediate

    def test_poke_invalidates_predecode(self):
        proc = make_processor("movi r1, 11\ndone\n")
        proc._predecode(0)
        assert proc._predec[0] is not None
        proc.imem.poke(1, 99)            # the movi's immediate word
        assert proc._predec[0] is None
        assert proc._predecode(0)[0].imm == 99

    def test_write_invalidates_previous_slot_too(self):
        proc = make_processor("movi r1, 11\ndone\n")
        proc._predecode(0)
        proc._predecode(2)               # the done
        proc.imem.write(2, proc.imem.peek(2))
        # Writing word 2 drops slot 2 and slot 1 (word 2 could have been
        # the second word of a two-word instruction at 1); slot 0 stays.
        assert proc._predec[2] is None
        assert proc._predec[0] is not None

    def test_load_image_invalidates_range(self):
        proc = make_processor("movi r1, 11\ndone\n")
        proc._predecode(0)
        proc._predecode(2)
        proc.imem.load_image([0, 0], base=8)
        assert proc._predec[0] is not None   # untouched range survives
        proc.imem.load_image(list(proc.imem.dump(0, 3)), base=0)
        assert proc._predec[0] is None
        assert proc._predec[2] is None


# -- bit-identity against the reference interpreter ---------------------------

TIMER_WORKLOAD = """
boot:
    movi r1, 0
    movi r2, handler
    setaddr r1, r2
    movi r1, 0
    movi r2, 50
    schedlo r1, r2
    done
handler:
    ld r3, 0(r0)
    addi r3, 1
    st r3, 0(r0)
    movi r1, 0
    movi r2, 50
    schedlo r1, r2
    done
"""


def _run_traced(fast_path, until):
    trace = []
    proc = make_processor(
        TIMER_WORKLOAD, fast_path=fast_path,
        trace_fn=lambda p, t, pc, ins: trace.append((t, pc, str(ins))))
    proc.run(until=until)
    return proc, trace


class TestBitIdentity:
    def test_timer_workload_identical_traces_and_meters(self):
        """Every per-instruction timestamp, pc, and mnemonic -- and every
        meter accumulator at full float precision -- must match between
        the two engines across ten sleep/wake/dispatch cycles."""
        fast, fast_trace = _run_traced(True, until=0.00052)
        ref, ref_trace = _run_traced(False, until=0.00052)
        assert fast.dmem.peek(0) == 10
        assert fast_trace == ref_trace
        assert meter_digest(fast) == meter_digest(ref)

    def test_blink_app_identical_obs_streams(self):
        """With observability attached the fast path keeps bursting; the
        full event records (timestamps and energies included) must still
        be identical to the reference engine's."""
        streams = {}
        for fast_path in ENGINES:
            obs = Observability()
            sink = obs.bus.attach(MemorySink())
            node = SensorNode(config=CoreConfig(voltage=0.6,
                                                fast_path=fast_path))
            node.load(build_blink_app(period_ticks=200))
            node.attach_observability(obs)
            node.run(until=0.05)
            streams[fast_path] = [event.to_record()
                                  for event in sink.events]
        assert streams[True] == streams[False]
        assert len(streams[True]) > 50

    def test_burst_counters_only_move_on_fast_path(self):
        fast, _ = _run_traced(True, until=0.00052)
        ref, _ = _run_traced(False, until=0.00052)
        assert fast.bursts > 0
        assert fast.burst_instructions == fast.meter.instructions
        assert ref.bursts == 0
        assert ref.burst_instructions == 0

    def test_hoist_absorb_round_trip(self):
        proc = make_processor(TIMER_WORKLOAD)
        proc.run(until=0.00052)
        meter = proc.meter
        before = meter_digest(proc)
        meter.absorb_hot(*meter.hoist_hot())
        assert meter_digest(proc) == before
