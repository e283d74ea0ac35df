"""The SNAP/LE processor: event-driven fetch/decode/execute with energy
and timing accounting.

The processor is a component on a :class:`~repro.core.kernel.Kernel`
timeline.  While awake it advances one instruction at a time, spaced by
the asynchronous timing model; while asleep it schedules nothing at all
-- the QDI property that idle circuits have no switching activity falls
out of the simulation structure itself.  An event-token insertion wakes
it after the 18-gate-delay wakeup latency (Section 4.3).

Two execution engines produce bit-identical results:

* the **fast path** (default) predecodes each IMEM word once into an
  executor-bound slot and executes straight-line instructions in a tight
  burst loop inside a single kernel callback, advancing the kernel clock
  directly and re-entering the event heap only when the next interaction
  event (or the run horizon) would interleave.  Other cores' steps cut
  a burst only within one radio word of them (lookahead: nothing a core
  does reaches another core sooner), and only before an instruction
  that is not meter-safe;
* the **reference path** (``CoreConfig(fast_path=False)``) keeps the
  pre-burst cost profile -- one kernel callback per instruction, a
  fetch-time decode-cache probe, and a fresh delay/energy computation per
  dynamic instruction -- and serves as the baseline for the sim-speed
  benchmark and for differential testing.

See DESIGN.md ("The fast-path execution engine") for the burst/yield
rule and the bit-identity argument.
"""

import dataclasses
import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.coprocessors.message import MessageCoprocessor
from repro.coprocessors.timer import DEFAULT_TICK_HZ, TimerCoprocessor
from repro.core.event_queue import POLICY_DROP, EventQueue
from repro.core.exceptions import SimulationDeadlock, SimulationError
from repro.core.execute import EXECUTORS, FALL_THROUGH, execute
from repro.core.kernel import Kernel
from repro.core.lfsr import Lfsr16
from repro.core.memory import MemoryBank
from repro.core.regfile import RegisterFile
from repro.core.timing import TimingModel, gate_delays_for
from repro.energy.accounting import EnergyMeter
from repro.energy.calibration import DEFAULT_CALIBRATION
from repro.energy.model import EnergyModel
from repro.isa.encoding import decode_words
from repro.isa.events import NUM_EVENTS, Event
from repro.isa.opcodes import Opcode, spec_for
from repro.isa.registers import REG_MSG

_INFINITY = float("inf")
_NEG_INFINITY = float("-inf")


class Mode(enum.Enum):
    """Processor execution state."""

    RESET = "reset"
    RUNNING = "running"
    #: Stalled on an r15 read with the outgoing FIFO empty.
    STALLED = "stalled"
    #: Asleep: `done` found the event queue empty; zero switching activity.
    SLEEPING = "sleeping"
    #: Between token arrival and the first handler instruction.
    WAKING = "waking"
    HALTED = "halted"


@dataclass
class CoreConfig:
    """Configuration of one SNAP/LE core."""

    voltage: float = 0.6
    imem_words: int = 2048
    dmem_words: int = 2048
    event_queue_capacity: int = 8
    event_queue_policy: str = POLICY_DROP
    fifo_capacity: int = 16
    timer_tick_hz: int = DEFAULT_TICK_HZ
    leakage_power: float = 0.0
    calibration: object = DEFAULT_CALIBRATION
    #: Safety valve: fault if a single run executes more than this many
    #: instructions (None disables the check).  The default is far above
    #: any workload in this repository; it exists to turn accidentally
    #: divergent guest programs into errors instead of hangs.
    max_instructions: Optional[int] = 10_000_000
    #: Optional per-instruction trace callback:
    #: ``trace_fn(processor, time, pc, instruction)``.
    trace_fn: Optional[Callable] = None
    #: Use the batched fast-path engine (predecoded IMEM + instruction
    #: bursts).  ``False`` selects the per-event reference interpreter
    #: with the pre-burst cost profile; results are bit-identical either
    #: way.
    fast_path: bool = True


#: Bound on the process-wide predecode slot memo, in slots.  A
#: convergecast-32 network uses 237; the bound leaves room for a sweep
#: over several operating points without letting a fuzzer grow the memo
#: without limit.  When full, the oldest slot is evicted.
SLOT_MEMO_SIZE = 4096

#: ``(first word[, second word], operating-point key)`` -> slot tuple,
#: shared by every fast-path core in the process.
_SLOT_MEMO = {}


def _calibration_key(calibration):
    """A hashable value for a calibration dataclass.

    ``Calibration`` is a frozen dataclass whose ``unit_pj`` dict defeats
    its own ``__hash__``; fold the fields into tuples instead.  The key
    is a value, never an identity: the slot memo outlives any one
    calibration object."""
    fields = []
    for field in dataclasses.fields(calibration):
        value = getattr(calibration, field.name)
        if isinstance(value, dict):
            value = tuple(sorted(
                (getattr(key, "value", key), item)
                for key, item in value.items()))
        fields.append((field.name, value))
    return tuple(fields)


class SnapProcessor:
    """One SNAP/LE core with its coprocessors."""

    def __init__(self, kernel=None, config=None, name="snap"):
        self.name = name
        self.config = config or CoreConfig()
        self.kernel = kernel if kernel is not None else Kernel()

        self.imem = MemoryBank(self.config.imem_words, name="%s.imem" % name)
        self.dmem = MemoryBank(self.config.dmem_words, name="%s.dmem" % name)
        self.regs = RegisterFile()
        self.lfsr = Lfsr16()
        self.carry = 0
        self.pc = 0
        self.handler_table = [0] * NUM_EVENTS

        self.timing = TimingModel(self.config.voltage)
        self.energy_model = EnergyModel(
            voltage=self.config.voltage,
            calibration=self.config.calibration,
            leakage_power=self.config.leakage_power)
        self.meter = EnergyMeter()

        self.event_queue = EventQueue(
            capacity=self.config.event_queue_capacity,
            policy=self.config.event_queue_policy)
        self.event_queue.on_insert.append(self._on_event_token)

        self.mcp = MessageCoprocessor(
            self.kernel, self.event_queue,
            fifo_capacity=self.config.fifo_capacity,
            on_token=self._meter_event_token)
        self.mcp.on_outgoing_data.append(self._on_outgoing_data)
        self.timer = TimerCoprocessor(
            self.kernel, self.event_queue,
            tick_hz=self.config.timer_tick_hz,
            on_token=self._meter_event_token)

        self.mode = Mode.RESET
        #: Tag under which instruction statistics are being accumulated
        #: ("boot", then the current handler's tag).
        self.current_tag = "boot"
        #: Maps an event to the statistics tag of its handler; replace
        #: entries to attribute handler costs to named workloads.
        self.handler_tags = {event: event.name for event in Event}

        self._sleep_start = None
        self._instruction_budget_used = 0
        self._step_pending = False
        self._decode_cache = {}

        self._fast_path = self.config.fast_path
        #: Predecoded IMEM: one slot per word, built lazily by
        #: :meth:`_predecode` and invalidated by the IMEM write hook.
        self._predec = None
        if self._fast_path:
            self._predec = [None] * self.config.imem_words
            self.imem.write_hook = self._invalidate_predecode
            #: The operating point a slot's delays and energies depend
            #: on; part of every slot-memo key.
            self._op_key = (self.config.voltage,
                            _calibration_key(self.config.calibration))
        #: Fast-path burst statistics (host-side, no simulation effect):
        #: number of burst entries and instructions retired inside bursts.
        self.bursts = 0
        self.burst_instructions = 0

        #: Optional :class:`~repro.obs.Observability` context.  ``None``
        #: (the default) means every hook site is a single skipped
        #: ``is not None`` check -- simulation results are bit-identical
        #: with observability detached.
        self.obs = None
        #: The linked :class:`~repro.asm.Program` last loaded, kept for
        #: pc symbolication (debugger, profiler, crash bundles).
        self.program = None

    def attach_observability(self, obs):
        """Attach an :class:`~repro.obs.Observability` context.

        Instruments this core, its event queue, and its message
        coprocessor.  Pass ``None`` to detach.
        """
        self.obs = obs
        self.event_queue.obs = obs
        self.event_queue.name = "%s.eq" % self.name
        self.mcp.obs = obs
        self.mcp.name = "%s.mcp" % self.name
        if obs is not None:
            obs.register_processor(self)
            if self.program is not None:
                self._report_program(self.program)
        return self

    # -- program loading and control ------------------------------------------

    def load(self, program):
        """Load a linked :class:`~repro.asm.Program` into IMEM/DMEM.

        The program is kept on ``self.program`` so debuggers and crash
        bundles can symbolicate pcs through its line table.
        """
        self.imem.load_image(program.imem)
        self.dmem.load_image(program.dmem)
        self.pc = program.entry
        self.program = program
        if self.obs is not None:
            self._report_program(program)

    def _report_program(self, program):
        self.obs.program_loaded(
            self.name, len(program.imem), len(program.dmem),
            self.config.imem_words, self.config.dmem_words)

    def start(self):
        """Begin executing boot code at the current kernel time."""
        if self.mode != Mode.RESET:
            raise SimulationError("processor already started")
        self.mode = Mode.RUNNING
        self.current_tag = "boot"
        self._schedule_step(0.0)

    def run(self, until=None, max_events=None):
        """Drive the kernel; returns this core's :class:`EnergyMeter`.

        Starts the core if it has not started.  Raises
        :class:`SimulationDeadlock` if the kernel drains while the core is
        stalled on r15 (nothing can ever deliver the word it is waiting
        for).
        """
        if self.mode == Mode.RESET:
            self.start()
        self.kernel.run(until=until, max_events=max_events)
        if self.mode == Mode.STALLED and self.kernel.pending == 0:
            raise SimulationDeadlock(
                "%s stalled on r15 at pc=0x%04x with no pending activity"
                % (self.name, self.pc))
        return self.meter

    @property
    def asleep(self):
        return self.mode == Mode.SLEEPING

    @property
    def halted(self):
        return self.mode == Mode.HALTED

    def raise_soft_event(self):
        """Insert a software event token (testing / experiments)."""
        self.event_queue.insert(Event.SOFT, raised_at=self.kernel.now)

    # -- register access (the r15 convention) ----------------------------------

    def read_reg(self, index):
        if index == REG_MSG:
            return self.mcp.pop_to_core()
        return self.regs.read(index)

    def write_reg(self, index, value):
        if index == REG_MSG:
            self.mcp.push_from_core(value & 0xFFFF)
        else:
            self.regs.write(index, value)

    # -- the fetch/decode/execute step -----------------------------------------

    def _schedule_step(self, delay):
        if self._step_pending:
            raise AssertionError("step already scheduled")
        self._step_pending = True
        self.kernel.schedule_core(delay, self._step)

    def _step(self):
        self._step_pending = False
        if self.mode == Mode.HALTED:
            return
        if self.mode == Mode.WAKING:
            self.mode = Mode.RUNNING
            if not self._dispatch():
                return
        if self._fast_path and self.kernel._burst_ok:
            self._burst()
        else:
            self._step_once()

    # -- the batched fast path -------------------------------------------------

    def _invalidate_predecode(self, start, count):
        """IMEM write hook: drop slots whose words were rewritten.

        The slot at ``start - 1`` may be a two-word instruction whose
        second word just changed, so it is invalidated too.
        """
        predec = self._predec
        lower = start - 1 if start > 0 else 0
        upper = start + count
        if upper > len(predec):
            upper = len(predec)
        for index in range(lower, upper):
            predec[index] = None

    def _predecode(self, pc):
        """The executor-bound slot for the instruction at *pc*.

        A slot depends only on its instruction word(s) and the core's
        operating point, so every fast-path core in the process shares
        one slot per ``(words, operating point)`` through the slot memo;
        self-modified words simply map to a different key.  Charges
        nothing: IMEM read accounting happens when a dynamic instruction
        actually proceeds past its stall check.
        """
        imem = self.imem
        first = imem.peek(pc)
        opcode_value = first >> 10
        try:
            spec = spec_for(opcode_value)
        except ValueError:
            raise SimulationError(
                "%s: illegal opcode 0x%02x at pc=0x%04x"
                % (self.name, opcode_value, pc)) from None
        if spec.two_word:
            words = (first, imem.peek(pc + 1))
        else:
            words = (first,)
        key = words + (self._op_key,)
        slot = _SLOT_MEMO.get(key)
        if slot is None:
            slot = self._build_slot(spec, words)
            if len(_SLOT_MEMO) >= SLOT_MEMO_SIZE:
                del _SLOT_MEMO[next(iter(_SLOT_MEMO))]
            _SLOT_MEMO[key] = slot
        self._predec[pc] = slot
        return slot

    def _build_slot(self, spec, words):
        """Decode *words* (an instance of *spec*) into a slot tuple."""
        instruction = decode_words(*words)
        breakdown = self.energy_model.compute_instruction_energy(spec)
        delay_not_taken = self.timing.instruction_delay(spec, taken=False)
        delay_taken = self.timing.instruction_delay(spec, taken=True)
        r15_reads = 0
        if spec.reads_rd and instruction.rd == REG_MSG:
            r15_reads += 1
        if spec.reads_rs and instruction.rs == REG_MSG:
            r15_reads += 1
        # A slot is "meter-safe" when executing it cannot touch the
        # EnergyMeter through a side channel while the burst loop holds
        # ``total_energy`` in a local: r15 traffic can raise event tokens
        # via the message coprocessor, and ``cancel`` inserts a token
        # synchronously -- both call record_event_token.  (``schedlo`` /
        # ``schedhi`` only move kernel events, which the burst's
        # next-event cache handles via the kernel version counter.)
        meter_safe = (r15_reads == 0
                      and not (spec.writes_rd and instruction.rd == REG_MSG)
                      and spec.opcode is not Opcode.CANCEL)
        return (instruction, EXECUTORS[instruction.opcode], instruction.size,
                spec.instr_class, delay_not_taken, delay_taken,
                breakdown.total, breakdown.imem, breakdown.dmem,
                breakdown.datapath, breakdown.fetch, breakdown.decode,
                breakdown.mem_if, breakdown.misc, breakdown,
                r15_reads, meter_safe)

    def _raise_budget_exceeded(self):
        raise SimulationError(
            "%s exceeded the instruction budget of %d -- runaway program?"
            % (self.name, self.config.max_instructions))

    def _burst(self):
        """Execute instructions in a tight loop inside one kernel event.

        Invariants, per iteration: the kernel clock equals the fetch time
        of the current instruction (so timer scheduling, dispatch-latency
        accounting, trace and obs hooks observe exactly the times the
        per-event engine would); the hot meter accumulators live in
        locals and are written back before anything else can observe or
        mutate the meter (yield, stall, sleep, halt, dispatch, a
        non-meter-safe instruction, or an exception).

        The loop yields back to the kernel heap -- scheduling the next
        step callback after the current instruction's delay -- as soon as
        the next instruction's fetch time ``finish`` reaches the next
        interaction event or passes the run horizon.  Another core's
        pending step cuts the burst too, unless ``finish`` stays below
        that step plus ``kernel.lookahead`` (one radio word: nothing that
        core does can reach this one sooner) and the next slot is
        meter-safe (no r15 traffic or ``cancel``, so carrier sense,
        transmit start and FIFO reads still run in global order).
        Lookahead is off while a trace function or bus sink listens: it
        would reorder this core's events against other cores'.  An
        instruction run ahead registers its instant with the kernel, and
        every instruction that lands on a registered instant takes the
        label the kernel places it at, so what it schedules keeps the
        reference engine's order (see :mod:`repro.core.kernel`).
        """
        kernel = self.kernel
        meter = self.meter
        mcp = self.mcp
        obs = self.obs
        trace_fn = self.config.trace_fn
        predec = self._predec
        imem = self.imem
        by_class = meter.by_class
        by_handler = meter.by_handler

        limit = self.config.max_instructions
        if limit is None:
            limit = _INFINITY
        budget = self._instruction_budget_used

        now = kernel._now
        horizon = kernel._horizon
        if horizon is None:
            horizon = _INFINITY
        # Lookahead reorders this core's trace and bus events against
        # other cores', so it is off while anything listens to them.
        if trace_fn is None and (obs is None or not obs.bus.sinks):
            lookahead = kernel.lookahead
        else:
            lookahead = 0.0
        version = kernel._version
        strict, relaxed = kernel.burst_bounds(lookahead)
        # The running instruction's label in the kernel's order (see
        # Kernel._place), and whether the next one needs a fresh label.
        # While that or a registered instant may apply, *gate* sends
        # every instruction down the slow path below; otherwise it is
        # the strict bound, which costs the hot path nothing.
        instants = kernel._instants
        label = kernel._label
        relabel = False
        gate = _NEG_INFINITY if instants else strict

        pc = self.pc
        tag = self.current_tag

        (m_ins, m_cyc, m_total, m_busy, m_imem, m_dmem,
         b_datapath, b_fetch, b_decode, b_mem_if, b_misc) = meter.hoist_hot()
        hstats = by_handler[tag]
        h_ins = hstats.instructions
        h_cyc = hstats.cycles
        h_en = hstats.energy
        self.bursts += 1
        try:
            while True:
                try:
                    slot = predec[pc]
                except IndexError:
                    imem._check(pc)  # raises MemoryFault with bank context
                    raise
                if slot is None:
                    slot = self._predecode(pc)
                (instruction, executor, size, cls, delay_nt, delay_tk,
                 e_total, e_imem, e_dmem, e_datapath, e_fetch, e_decode,
                 e_mem_if, e_misc, breakdown, r15_reads, meter_safe) = slot

                if meter_safe:
                    imem.reads += size
                    self.pc = pc
                    if trace_fn is not None:
                        trace_fn(self, now, pc, instruction)
                    outcome = executor(self, instruction)
                else:
                    if r15_reads > mcp.outgoing_available():
                        self.mode = Mode.STALLED
                        self.pc = pc
                        return
                    imem.reads += size
                    self.pc = pc
                    if trace_fn is not None:
                        trace_fn(self, now, pc, instruction)
                    # The executor may add event-token energy to
                    # ``total_energy`` through the coprocessors; sync the
                    # hoisted local around the call so every addition
                    # lands in the same order as the per-event engine.
                    meter.total_energy = m_total
                    try:
                        outcome = executor(self, instruction)
                    finally:
                        m_total = meter.total_energy

                if outcome is FALL_THROUGH:
                    delay = delay_nt
                    next_pc = pc + size
                    control = False
                else:
                    delay = delay_tk if outcome.taken else delay_nt
                    next_pc = outcome.next_pc
                    if next_pc is None:
                        next_pc = pc + size
                    control = outcome.done or outcome.halt

                m_ins += 1
                m_cyc += size
                m_total += e_total
                m_busy += delay
                m_imem += e_imem
                m_dmem += e_dmem
                b_datapath += e_datapath
                b_fetch += e_fetch
                b_decode += e_decode
                b_mem_if += e_mem_if
                b_misc += e_misc
                class_stats = by_class[cls]
                class_stats.count += 1
                class_stats.energy += e_total
                h_ins += 1
                h_cyc += size
                h_en += e_total
                if obs is not None:
                    obs.instruction_retired(self.name, now, pc, instruction,
                                            tag, e_total, delay)
                budget += 1
                if budget > limit:
                    self._raise_budget_exceeded()
                self.burst_instructions += 1

                if control:
                    if outcome.halt:
                        self.mode = Mode.HALTED
                        return
                    # done: flush the per-handler stats before dispatch
                    # touches them (invocations) and swap to the new tag.
                    # The other hoisted accumulators are untouched by
                    # dispatch and stay in locals.
                    hstats.instructions = h_ins
                    hstats.cycles = h_cyc
                    hstats.energy = h_en
                    if not self._dispatch():
                        return
                    pc = self.pc
                    tag = self.current_tag
                    hstats = by_handler[tag]
                    h_ins = hstats.instructions
                    h_cyc = hstats.cycles
                    h_en = hstats.energy
                    next_pc = pc

                finish = now + delay
                if kernel._version != version:
                    version = kernel._version
                    strict, relaxed = kernel.burst_bounds(lookahead)
                    relabel = True
                    gate = _NEG_INFINITY
                if gate <= finish or finish > horizon:
                    if strict <= finish or finish > horizon:
                        # Past another core's step: run ahead only to a
                        # meter-safe slot and only while no radio word
                        # from that core could have reached this one.
                        if relaxed <= finish or finish > horizon:
                            self.pc = next_pc
                            self._schedule_step(delay)
                            return
                        try:
                            following = predec[next_pc]
                            if following is None:
                                following = self._predecode(next_pc)
                        except (IndexError, SimulationError):
                            # Fetching it faults: leave that to the step
                            # at its own time.
                            following = None
                        if following is None or not following[16]:
                            self.pc = next_pc
                            self._schedule_step(delay)
                            return
                        # Register the instant, so whatever runs here
                        # later is placed against this instruction.
                        label = kernel._label = kernel._place(
                            finish, (now, label, kernel._next_handle),
                            True)
                        relabel = True
                        if finish > kernel._frontier:
                            kernel._frontier = finish
                    elif finish in instants:
                        label = kernel._label = kernel._place(
                            finish, (now, label, kernel._next_handle),
                            False)
                        relabel = True
                    elif relabel:
                        label = kernel._label = kernel._next_handle
                        relabel = False
                    gate = _NEG_INFINITY if relabel or instants else strict
                now = finish
                kernel._now = finish
                pc = next_pc
        finally:
            meter.absorb_hot(m_ins, m_cyc, m_total, m_busy, m_imem,
                             m_dmem, b_datapath, b_fetch, b_decode,
                             b_mem_if, b_misc)
            hstats.instructions = h_ins
            hstats.cycles = h_cyc
            hstats.energy = h_en
            self._instruction_budget_used = budget

    # -- the per-event path ----------------------------------------------------

    def _step_once(self):
        """Execute exactly one instruction in this kernel callback.

        Used by the reference interpreter (``fast_path=False``) and
        whenever the kernel is being single-stepped (a bare
        ``kernel.step()`` or a ``max_events`` run), where one callback
        must retire at most one instruction.
        """
        fast = self._fast_path
        if fast:
            try:
                slot = self._predec[self.pc]
            except IndexError:
                self.imem._check(self.pc)
                raise
            if slot is None:
                slot = self._predecode(self.pc)
            instruction = slot[0]
            if slot[15] > self.mcp.outgoing_available():
                self.mode = Mode.STALLED
                return
        else:
            instruction = self._fetch()
            if self._stall_needed(instruction):
                self.mode = Mode.STALLED
                return
        # One IMEM read per word, charged only when the instruction
        # proceeds -- a stalled instruction retrying later is one dynamic
        # instruction and must not be charged twice.
        self.imem.reads += instruction.size

        if self.config.trace_fn is not None:
            self.config.trace_fn(self, self.kernel.now, self.pc, instruction)

        pc = self.pc
        outcome = execute(self, instruction)

        if fast:
            delay = slot[5] if outcome.taken else slot[4]
            breakdown = slot[14]
        else:
            # Reference cost profile: recompute delay and energy from
            # scratch for every dynamic instruction, as the pre-burst
            # interpreter did.
            spec = instruction.spec
            delay = gate_delays_for(spec, taken=outcome.taken) \
                * self.timing.gate_delay
            breakdown = self.energy_model.compute_instruction_energy(spec)
        self.meter.record_instruction(instruction.spec, breakdown, delay,
                                      handler_tag=self.current_tag)
        if self.obs is not None:
            self.obs.instruction_retired(
                self.name, self.kernel.now, pc, instruction,
                self.current_tag, breakdown.total, delay)
        self._check_budget()

        if outcome.halt:
            self.mode = Mode.HALTED
            return
        if outcome.done:
            if self._dispatch():
                self._schedule_step(delay)
            return
        if outcome.next_pc is not None:
            self.pc = outcome.next_pc
        else:
            self.pc += instruction.size
        self._schedule_step(delay)

    def _fetch(self):
        """Reference-path fetch: decode-cache probe with word compare.

        Reads go through ``peek``: the per-word access charge lands in
        ``_step_once`` after the stall check so a stalled retry is not
        double-counted.
        """
        cached = self._decode_cache.get(self.pc)
        first = self.imem.peek(self.pc)
        if cached is not None and cached[0] == first:
            instruction = cached[1]
            if instruction.size == 2:
                second = self.imem.peek(self.pc + 1)
                if second != cached[2]:
                    instruction = decode_words(first, second)
                    self._decode_cache[self.pc] = (first, instruction, second)
            return instruction
        opcode_value = first >> 10
        try:
            spec = spec_for(opcode_value)
        except ValueError:
            raise SimulationError(
                "%s: illegal opcode 0x%02x at pc=0x%04x"
                % (self.name, opcode_value, self.pc)) from None
        words = [first]
        if spec.two_word:
            words.append(self.imem.peek(self.pc + 1))
        instruction = decode_words(*words)
        self._decode_cache[self.pc] = (
            first, instruction, words[1] if len(words) > 1 else None)
        return instruction

    def _stall_needed(self, instruction):
        """True when the instruction reads r15 and data is not yet there.

        The check happens before any architectural side effect so a
        stalled instruction can simply retry when data arrives.
        """
        spec = instruction.spec
        needed = 0
        if spec.reads_rd and instruction.rd == REG_MSG:
            needed += 1
        if spec.reads_rs and instruction.rs == REG_MSG:
            needed += 1
        return needed > self.mcp.outgoing_available()

    def _dispatch(self):
        """Pop the event queue and jump to the handler.

        Returns True when a token was dispatched; False when the queue was
        empty and the core went to sleep.
        """
        token = self.event_queue.pop()
        if token is None:
            self.mode = Mode.SLEEPING
            self._sleep_start = self.kernel.now
            if self.obs is not None:
                self.obs.sleep_enter(self.name, self.kernel.now)
            return False
        self.pc = self.handler_table[token.event]
        self.current_tag = self.handler_tags[token.event]
        self.meter.record_handler_start(self.current_tag)
        latency = self.kernel.now - token.raised_at
        self.meter.record_dispatch_latency(latency)
        if self.obs is not None:
            self.obs.handler_dispatch(self.name, self.kernel.now,
                                      token.event.name, self.current_tag,
                                      latency)
        return True

    # -- wakeup ----------------------------------------------------------------

    def _on_event_token(self, token):
        if self.mode != Mode.SLEEPING:
            return
        idle = self.kernel.now - self._sleep_start
        self.meter.record_idle(idle, self.energy_model.idle_energy(idle))
        self.meter.record_wakeup(self.energy_model.wakeup_energy)
        if self.obs is not None:
            self.obs.wakeup(self.name, self.kernel.now, idle)
        self.mode = Mode.WAKING
        self._schedule_step(self.timing.wakeup_latency)

    def _on_outgoing_data(self):
        if self.mode == Mode.STALLED:
            self.mode = Mode.RUNNING
            self._schedule_step(0.0)

    def _meter_event_token(self):
        self.meter.record_event_token(self.energy_model.event_token_energy)

    def _check_budget(self):
        self._instruction_budget_used += 1
        limit = self.config.max_instructions
        if limit is not None and self._instruction_budget_used > limit:
            raise SimulationError(
                "%s exceeded the instruction budget of %d -- runaway program?"
                % (self.name, limit))
