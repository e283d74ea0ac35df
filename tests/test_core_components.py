"""Kernel, memory, event queue, LFSR, and register-file tests."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    EventQueue,
    EventQueueOverflow,
    Kernel,
    Lfsr16,
    MemoryBank,
    MemoryFault,
    RegisterFile,
)
from repro.core.event_queue import POLICY_FAULT
from repro.isa.events import Event


class TestKernel:
    def test_events_run_in_time_order(self):
        kernel = Kernel()
        order = []
        kernel.schedule(2.0, order.append, "b")
        kernel.schedule(1.0, order.append, "a")
        kernel.schedule(3.0, order.append, "c")
        kernel.run()
        assert order == ["a", "b", "c"]
        assert kernel.now == 3.0

    def test_equal_times_run_in_schedule_order(self):
        kernel = Kernel()
        order = []
        for tag in range(5):
            kernel.schedule(1.0, order.append, tag)
        kernel.run()
        assert order == [0, 1, 2, 3, 4]

    def test_until_limits_time(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, 1)
        kernel.schedule(5.0, fired.append, 2)
        kernel.run(until=2.0)
        assert fired == [1]
        assert kernel.now == 2.0
        kernel.run()
        assert fired == [1, 2]

    def test_cancel(self):
        kernel = Kernel()
        fired = []
        handle = kernel.schedule(1.0, fired.append, "x")
        kernel.cancel(handle)
        kernel.run()
        assert fired == []
        assert kernel.pending == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Kernel().schedule(-1.0, lambda: None)

    def test_schedule_during_run(self):
        kernel = Kernel()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                kernel.schedule(1.0, chain, n + 1)

        kernel.schedule(0.0, chain, 0)
        kernel.run()
        assert seen == [0, 1, 2, 3]

    def test_max_events(self):
        kernel = Kernel()
        for _ in range(10):
            kernel.schedule(1.0, lambda: None)
        assert kernel.run(max_events=4) == 4

    def test_until_landing_exactly_on_an_event_runs_it(self):
        """``run(until=t)`` with an event at exactly ``t`` executes the
        event and leaves the clock at ``t`` -- not one float ulp shy of
        it -- so a checkpoint boundary placed on an event time never
        splits that event between two runs."""
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "edge")
        kernel.schedule(1.0 + 2 ** -40, fired.append, "after")
        assert kernel.run(until=1.0) == 1
        assert fired == ["edge"]
        assert kernel.now == 1.0
        kernel.run()
        assert fired == ["edge", "after"]

    def test_cancel_then_reschedule_keeps_handle_order(self):
        """A callback cancelled and rescheduled at the same time runs in
        its *new* handle position; the dead handle stays dead."""
        kernel = Kernel()
        order = []
        first = kernel.schedule(1.0, order.append, "stale")
        kernel.schedule(1.0, order.append, "kept")
        kernel.cancel(first)
        kernel.schedule(1.0, order.append, "rearmed")
        kernel.cancel(first)  # idempotent on an already-dead handle
        kernel.run()
        assert order == ["kept", "rearmed"]
        assert kernel.pending == 0

    def test_mass_cancellation_leaves_heap_live(self):
        """Cancelling many entries must not strand the survivors behind
        dead heap nodes: pending, next_time, and execution all reflect
        only the live entries."""
        kernel = Kernel()
        fired = []
        handles = [kernel.schedule(1.0 + index * 0.1, fired.append, index)
                   for index in range(100)]
        for handle in handles[:99]:
            kernel.cancel(handle)
        assert kernel.pending == 1
        assert kernel.next_time() == pytest.approx(1.0 + 99 * 0.1)
        assert kernel.run() == 1
        assert fired == [99]
        assert kernel._queue == [] and kernel._live == {}

    def test_cancel_after_fire_does_not_leak(self):
        """Cancelling a handle that already fired must not retain state.

        Regression: cancelled handles used to be remembered in a set
        forever when the cancel arrived after the event had fired, which
        leaked memory across long timer-heavy runs.
        """
        kernel = Kernel()
        fired = []
        handle = kernel.schedule(1.0, fired.append, "x")
        kernel.run()
        assert fired == ["x"]
        kernel.cancel(handle)
        assert kernel._live == {}
        assert kernel.pending == 0

    def test_double_cancel_is_idempotent(self):
        kernel = Kernel()
        fired = []
        handle = kernel.schedule(1.0, fired.append, "x")
        kernel.cancel(handle)
        kernel.cancel(handle)
        kernel.run()
        assert fired == []
        assert kernel._live == {}

    def test_pending_excludes_cancelled(self):
        kernel = Kernel()
        handles = [kernel.schedule(1.0, lambda: None) for _ in range(3)]
        assert kernel.pending == 3
        kernel.cancel(handles[1])
        assert kernel.pending == 2
        kernel.run()
        assert kernel.pending == 0

    def test_run_until_advances_clock_when_queue_drains_early(self):
        """run(until=T) must leave now == T even if the queue drained
        before T -- back-to-back bounded runs see a consistent timeline."""
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        kernel.run(until=5.0)
        assert kernel.now == 5.0

    def test_run_until_with_empty_queue_advances_clock(self):
        kernel = Kernel()
        kernel.run(until=2.0)
        assert kernel.now == 2.0
        kernel.run(until=4.0)
        assert kernel.now == 4.0

    def test_event_exactly_at_until_runs(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(2.0, fired.append, 1)
        kernel.run(until=2.0)
        assert fired == [1]
        assert kernel.now == 2.0

    def test_max_events_cut_short_does_not_jump_to_until(self):
        """A run stopped by max_events stays at the last event executed;
        only a run that exhausted its runnable events advances to until."""
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        kernel.run(until=5.0, max_events=1)
        assert kernel.now == 1.0
        kernel.run(until=5.0)
        assert kernel.now == 5.0


class TestMemoryBank:
    def test_read_write(self):
        bank = MemoryBank(16)
        bank.write(3, 0x1234)
        assert bank.read(3) == 0x1234
        assert (bank.reads, bank.writes) == (1, 1)

    def test_values_masked_to_16_bits(self):
        bank = MemoryBank(4)
        bank.write(0, 0x1FFFF)
        assert bank.read(0) == 0xFFFF

    @pytest.mark.parametrize("address", [-1, 16, 1000])
    def test_out_of_range_faults(self, address):
        bank = MemoryBank(16)
        with pytest.raises(MemoryFault):
            bank.read(address)
        with pytest.raises(MemoryFault):
            bank.write(address, 0)

    def test_load_image(self):
        bank = MemoryBank(8)
        bank.load_image([1, 2, 3], base=2)
        assert bank.dump(2, 3) == [1, 2, 3]

    def test_load_image_overflow(self):
        with pytest.raises(MemoryFault):
            MemoryBank(4).load_image([0] * 5)

    def test_peek_poke_skip_counters(self):
        bank = MemoryBank(4)
        bank.poke(0, 9)
        assert bank.peek(0) == 9
        assert (bank.reads, bank.writes) == (0, 0)


class TestEventQueue:
    def test_fifo_order(self):
        queue = EventQueue(capacity=4)
        queue.insert(Event.TIMER1)
        queue.insert(Event.RADIO_RX)
        assert queue.pop().event == Event.TIMER1
        assert queue.pop().event == Event.RADIO_RX
        assert queue.pop() is None

    def test_drop_policy_counts(self):
        queue = EventQueue(capacity=2)
        assert queue.insert(Event.TIMER0)
        assert queue.insert(Event.TIMER1)
        assert not queue.insert(Event.TIMER2)
        assert queue.dropped == 1
        assert len(queue) == 2

    def test_fault_policy(self):
        queue = EventQueue(capacity=1, policy=POLICY_FAULT)
        queue.insert(Event.TIMER0)
        with pytest.raises(EventQueueOverflow):
            queue.insert(Event.TIMER1)

    def test_observer_called_on_insert_only(self):
        queue = EventQueue(capacity=1)
        seen = []
        queue.on_insert.append(lambda token: seen.append(token.event))
        queue.insert(Event.SOFT)
        queue.insert(Event.SOFT)  # dropped
        assert seen == [Event.SOFT]

    def test_raised_at_recorded(self):
        queue = EventQueue()
        queue.insert(Event.TIMER0, raised_at=1.5)
        assert queue.peek().raised_at == 1.5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EventQueue(capacity=0)


class TestLfsr:
    def test_full_period(self):
        """Maximal-length 16-bit LFSR: period 2**16 - 1."""
        lfsr = Lfsr16(seed=1)
        seen = set()
        state = lfsr.state
        for _ in range(2 ** 16 - 1):
            state = lfsr.next()
            assert state not in seen
            seen.add(state)
        assert lfsr.state == 1  # back to the seed
        assert 0 not in seen

    def test_zero_seed_mapped_to_default(self):
        lfsr = Lfsr16(seed=0)
        assert lfsr.state != 0
        lfsr.next()
        assert lfsr.state != 0

    @given(seed=st.integers(1, 0xFFFF))
    def test_deterministic_for_seed(self, seed):
        a, b = Lfsr16(seed), Lfsr16(seed)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]


class TestRegisterFile:
    def test_fifteen_physical_registers(self):
        regs = RegisterFile()
        assert len(regs.snapshot()) == 15

    def test_r15_access_is_a_bug(self):
        regs = RegisterFile()
        with pytest.raises(AssertionError):
            regs.read(15)
        with pytest.raises(AssertionError):
            regs.write(15, 0)

    def test_masking(self):
        regs = RegisterFile()
        regs.write(0, -1)
        assert regs.read(0) == 0xFFFF
