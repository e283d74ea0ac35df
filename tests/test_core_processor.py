"""Processor-level tests: event-driven execution, sleep/wake, r15 stalls,
handler atomicity, and the paper's architectural claims."""

import pytest

from repro.asm import build
from repro.core import CoreConfig, SimulationDeadlock, SnapProcessor
from repro.core.processor import Mode
from repro.core.exceptions import SimulationError
from repro.isa.events import Event


def make_processor(source, voltage=0.6, **config_kwargs):
    config_kwargs.setdefault("max_instructions", 1_000_000)
    proc = SnapProcessor(config=CoreConfig(voltage=voltage, **config_kwargs))
    proc.load(build(source))
    return proc


PERIODIC_COUNTER = """
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


class TestEventDrivenExecution:
    def test_boot_then_sleep(self):
        proc = make_processor("movi r1, 1\ndone\n")
        proc.run()
        assert proc.asleep
        assert proc.regs.peek(1) == 1

    def test_periodic_timer_handler(self):
        proc = make_processor(PERIODIC_COUNTER)
        proc.run(until=0.00052)  # ten 50us periods plus slack
        assert proc.dmem.peek(0) == 10
        assert proc.meter.by_handler["TIMER0"].invocations == 10

    def test_wakeup_counts_match_events(self):
        proc = make_processor(PERIODIC_COUNTER)
        proc.run(until=0.00052)
        assert proc.meter.wakeups == 10

    def test_sleep_has_zero_dynamic_energy(self):
        """QDI: all switching activity stops while asleep."""
        proc = make_processor("done\n")
        proc.run()
        baseline = proc.meter.total_energy
        proc.kernel.schedule(1.0, lambda: None)
        proc.kernel.run()
        assert proc.meter.total_energy == baseline
        assert proc.meter.idle_energy == 0.0

    def test_wakeup_latency_tens_of_nanoseconds(self):
        """The paper's headline: wake in tens of ns, not milliseconds."""
        proc = make_processor(PERIODIC_COUNTER, voltage=0.6)
        proc.run(until=0.00006)
        assert proc.meter.wakeups == 1
        assert proc.timing.wakeup_latency == pytest.approx(21.4e-9)

    def test_handler_atomicity(self):
        """A new event never preempts a running handler; it queues."""
        source = """
        boot:
            movi r1, 0
            movi r2, slow_handler
            setaddr r1, r2
            movi r1, 7
            movi r2, fast_handler
            setaddr r1, r2
            movi r1, 0
            movi r2, 10
            schedlo r1, r2
            done
        slow_handler:
            ; record entry order marker
            ld r3, 1(r0)
            addi r3, 1
            st r3, 1(r0)
            st r3, 2(r0)         ; slow handler ran at order r3
            movi r4, 200
        .spin:
            subi r4, 1
            bnez r4, .spin
            done
        fast_handler:
            ld r3, 1(r0)
            addi r3, 1
            st r3, 1(r0)
            st r3, 3(r0)         ; fast handler ran at order r3
            done
        """
        proc = make_processor(source)
        # Raise a SOFT event while the slow handler will be mid-execution.
        proc.kernel.schedule(11e-6, proc.raise_soft_event)
        proc.run(until=0.01)
        assert proc.dmem.peek(2) == 1  # slow handler completed first
        assert proc.dmem.peek(3) == 2  # soft handler ran strictly after

    def test_event_queue_overflow_drops(self):
        proc = make_processor("done\n", event_queue_capacity=2)
        proc.run(until=1e-9)
        # Saturate the queue while the core is still asleep at boot end.
        for _ in range(5):
            proc.raise_soft_event()
        assert proc.event_queue.dropped == 3

    def test_setaddr_bad_event_faults(self):
        proc = make_processor("movi r1, 12\nmovi r2, 0\nsetaddr r1, r2\ndone\n")
        with pytest.raises(SimulationError, match="event number"):
            proc.run()

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_illegal_opcode_faults(self, fast_path):
        proc = make_processor("movi r1, 1\n.word 0xfc00\n",
                              fast_path=fast_path)
        with pytest.raises(SimulationError,
                           match="illegal opcode 0x3f at pc=0x0002"):
            proc.run()

    def test_instruction_budget(self):
        proc = make_processor(".spin: jmp .spin\n", max_instructions=100)
        with pytest.raises(SimulationError, match="budget"):
            proc.run()


class TestR15Convention:
    def test_write_to_r15_reaches_coprocessor(self):
        proc = make_processor("movi r15, 0x4005\ndone\n")  # LED port 0 <- 5
        from repro.sensors import LedPort
        led = LedPort()
        proc.mcp.attach_port(0, led)
        proc.run()
        assert led.value == 5

    def test_read_from_r15_pops_outgoing(self):
        proc = make_processor("mov r1, r15\nst r1, 0(r0)\ndone\n")
        proc.mcp.outgoing.push(0xABCD)
        proc.run()
        assert proc.dmem.peek(0) == 0xABCD

    def test_read_from_empty_r15_stalls_then_resumes(self):
        proc = make_processor("mov r1, r15\nst r1, 0(r0)\ndone\n")
        proc.kernel.schedule(1e-3, proc.mcp._deliver, 0x1234)
        proc.run()
        assert proc.dmem.peek(0) == 0x1234
        assert proc.asleep

    def test_stall_with_no_source_deadlocks(self):
        proc = make_processor("mov r1, r15\ndone\n")
        with pytest.raises(SimulationDeadlock):
            proc.run()

    def test_stalled_core_consumes_no_energy(self):
        proc = make_processor("movi r1, 1\nmov r2, r15\ndone\n")
        proc.kernel.schedule(1.0, proc.mcp._deliver, 7)
        proc.run(until=0.5)
        energy_at_stall = proc.meter.total_energy
        assert proc.mode == Mode.STALLED
        proc.run()
        # Only the remaining instructions' energy was added; no energy
        # accrued during the ~1s stall itself.
        extra = proc.meter.total_energy - energy_at_stall
        assert extra < 1e-9

    def test_two_r15_reads_in_one_instruction(self):
        proc = make_processor("add r15, r15\ndone\n")
        proc.mcp.outgoing.push(3)
        proc.mcp.outgoing.push(4)
        from repro.sensors import LedPort
        led = LedPort()
        proc.mcp.attach_port(0, led)
        # add r15, r15 pops 3 and 4, writes 7 back to r15 -> LED command?
        # 7 is CMD_IDLE payload; attach a radio-free idle is fine.
        proc.run()
        # 3 + 4 = 7 pushed as a command word: kind 0 (idle), no radio
        # attached -> silently accepted.
        assert proc.mcp.commands_processed == 1


class TestHandlerDispatch:
    def test_handler_table_via_setaddr(self):
        source = """
        boot:
            movi r1, 7
            movi r2, soft
            setaddr r1, r2
            done
        soft:
            movi r3, 42
            done
        """
        proc = make_processor(source)
        proc.kernel.schedule(1e-6, proc.raise_soft_event)
        proc.run()
        assert proc.regs.peek(3) == 42

    def test_back_to_back_events_no_sleep(self):
        source = """
        boot:
            movi r1, 7
            movi r2, soft
            setaddr r1, r2
            done
        soft:
            ld r3, 0(r0)
            addi r3, 1
            st r3, 0(r0)
            done
        """
        proc = make_processor(source)

        def raise_two():
            proc.raise_soft_event()
            proc.raise_soft_event()

        proc.kernel.schedule(1e-6, raise_two)
        proc.run()
        assert proc.dmem.peek(0) == 2
        # Exactly one wakeup: the second token was consumed without
        # sleeping in between.
        assert proc.meter.wakeups == 1

    def test_handler_tags_customizable(self):
        proc = make_processor(PERIODIC_COUNTER)
        proc.handler_tags[Event.TIMER0] = "sample"
        proc.run(until=0.00011)
        assert proc.meter.by_handler["sample"].invocations == 2


class TestStatistics:
    def test_cycles_count_instruction_words(self):
        proc = make_processor("movi r1, 1\nadd r1, r1\nhalt\n")
        proc.run()
        assert proc.meter.instructions == 3
        assert proc.meter.cycles == 4

    def test_mips_scales_with_voltage(self):
        results = {}
        for voltage in (0.6, 1.8):
            proc = make_processor(
                "movi r2, 200\n.l: subi r2, 1\nbnez r2, .l\nhalt\n",
                voltage=voltage)
            results[voltage] = proc.run().average_mips()
        assert results[1.8] / results[0.6] == pytest.approx(8.56, rel=0.02)
