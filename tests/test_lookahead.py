"""Lookahead bursts: a fast-engine core runs past other cores' steps.

SNAP/LE nodes share nothing but the radio, so a core may keep running
while nothing another core does can reach it yet -- one radio word,
``kernel.lookahead``.  These tests pin what that must not change:

* the kernel's two lanes merge into one ``(time, scheduled_at, label,
  handle)`` order, and a run-ahead core's early handles cannot reorder
  a tie: a hand-built foreign word end and timer landing on the same
  float time, and cores whose clocks meet -- after the same or after
  different instruction histories -- meeting again at a carrier sense
  and a transmit start;
* generated lockstep handlers and generated convergecast chains give
  the reference engine's ``network_digest``, the chains also across
  capture/restore at a random cut (a small Hypothesis budget here, a
  larger one under ``-m slow``);
* bursts stay long (instructions per burst on convergecast-4) and a
  bus sink still sees the reference engine's instruction stream.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import build
from repro.core import CoreConfig
from repro.core.kernel import Kernel
from repro.network import NetworkSimulator
from repro.network.experiments import build_convergecast, convergecast
from repro.obs import MemorySink, Observability
from repro.obs.events import InstructionRetired
from repro.radio.transceiver import RadioConfig
from repro.scenarios import run_to
from repro.sim import Checkpoint, capture, network_digest, restore


# -- the kernel's two lanes ---------------------------------------------------


class TestLanes:
    def test_lanes_merge_in_time_then_schedule_order(self):
        kernel = Kernel()
        order = []
        kernel.schedule_core(1.0, order.append, "core")
        kernel.schedule(1.0, order.append, "interaction")
        kernel.schedule_core(0.5, order.append, "early core")
        kernel.run()
        assert order == ["early core", "core", "interaction"]

    def test_scheduled_at_orders_ties_before_the_handle(self):
        """An entry scheduled from a later clock sorts after one
        scheduled from an earlier clock at the same time, whatever
        their handles say."""
        kernel = Kernel()
        order = []
        kernel._now = 0.5  # a core that ran ahead schedules first...
        kernel.schedule(0.5, order.append, "from 0.5")
        kernel._now = 0.25  # ...then the network catches up
        kernel.schedule(0.75, order.append, "from 0.25")
        kernel.run()
        assert order == ["from 0.25", "from 0.5"]

    def test_heap_entries_span_both_lanes(self):
        kernel = Kernel()
        dead = kernel.schedule_core(0.1, print)
        kernel.schedule_core(0.3, print)
        kernel.schedule(0.2, print)
        kernel.cancel(dead)
        live = [entry[0] for entry in kernel.heap_entries()
                if entry[2] is not None]
        assert live == [0.2, 0.3]
        assert kernel.pending == 2

    def test_burst_bounds(self):
        kernel = Kernel()
        assert kernel.burst_bounds(1.0) == (math.inf, math.inf)
        dead = kernel.schedule_core(0.1, print)
        kernel.schedule_core(0.5, print)
        kernel.schedule(3.0, print)
        kernel.cancel(dead)
        assert kernel.burst_bounds(1.0) == (0.5, 1.5)
        assert kernel.burst_bounds(4.0) == (0.5, 3.0)

    def test_restore_puts_core_entries_in_the_core_lane(self):
        kernel = Kernel()
        kernel.restore_state(1.0, 4, [(2.0, 1, print, (), 0.5, 1)],
                             core_entries=[(2.5, 3, print, (), 0.25, 2.5)])
        assert kernel.burst_bounds(0.0) == (2.0, 2.0)
        lanes = [(entry[1], entry[5], entry[6])
                 for entry in kernel.live_entries()]
        assert lanes == [(1, 1, False), (3, 2.5, True)]

    def test_lookahead_is_the_shortest_joined_word(self):
        net = NetworkSimulator()
        assert net.kernel.lookahead == 0.0
        net.add_node(1, radio_config=RadioConfig(bit_rate=19_200.0))
        net.add_node(2, radio_config=RadioConfig(bit_rate=38_400.0))
        net.add_node(3, radio_config=RadioConfig(bit_rate=9_600.0))
        assert net.kernel.lookahead == 16 / 38_400.0


# -- ties: a foreign word end and a run-ahead timer ---------------------------

#: Spins, then sends one word; its spin outlasts one word time, so it
#: yields at the lookahead bound while the receiver runs ahead.
TIE_SENDER = """
boot:
    movi r1, 4
    movi r2, idle
    setaddr r1, r2
    movi r4, 12000
spin:
    subi r4, 1
    bnez r4, spin
    movi r15, 0x2000
tx:
    movi r15, 0x1234
    done
idle:
    done
"""

#: Listens, spins past the sender's pending step, arms timer 0, and logs
#: the order of its two handlers (1 = timer, 2 = word) in DMEM.
TIE_RECEIVER = """
boot:
    movi r1, 0
    movi r2, on_timer
    setaddr r1, r2
    movi r1, 3
    movi r2, on_word
    setaddr r1, r2
    movi r15, 0x1000
    movi r4, 15800
spin:
    subi r4, 1
    bnez r4, spin
    movi r1, 0
    movi r2, %d
arm:
    schedlo r1, r2
    done
on_timer:
    movi r3, 1
    jal log
    done
on_word:
    mov r3, r15
    movi r3, 2
    jal log
    done
log:
    ld r5, 0(r0)
    addi r5, 1
    st r5, 0(r0)
    add r5, r0
    st r3, 0(r5)
    jr r14
"""

TIE_HORIZON = 0.002


def _tie_net(fast_path, bit_rate, ticks, trace_fn=None):
    config = CoreConfig(fast_path=fast_path, trace_fn=trace_fn)
    radio = RadioConfig(bit_rate=bit_rate)
    net = NetworkSimulator()
    receiver = net.add_node(1, program=build(TIE_RECEIVER % ticks),
                            config=config, radio_config=radio)
    sender = net.add_node(2, program=build(TIE_SENDER), config=config,
                          radio_config=radio, position=(1.0, 0.0))
    return net, receiver, sender


def _fetch_times(bit_rate, ticks):
    """Reference-engine fetch times of the sender's data write and the
    receiver's ``schedlo``."""
    times = {}

    def trace(processor, time, pc, instruction):
        times.setdefault((processor.name, pc), time)

    net, receiver, sender = _tie_net(False, bit_rate, ticks, trace)
    net.run(until=TIE_HORIZON)
    return (times[(sender.processor.name,
                   sender.processor.program.symbols["tx"])],
            times[(receiver.processor.name,
                   receiver.processor.program.symbols["arm"])])


def _tied_parameters():
    """A bit rate and timer count under which the sender's word ends at
    exactly the float time the receiver's timer expires."""
    word_s = 16 / 19_200.0
    sent, armed = _fetch_times(19_200.0, 500)
    ticks = round((sent + word_s - armed) * 1e6)
    expiry = armed + ticks / 1e6
    bit_rate = 16 / (expiry - sent)
    for _ in range(64):
        end = sent + 16 / bit_rate
        if end == expiry:
            break
        bit_rate = math.nextafter(bit_rate,
                                  0.0 if end < expiry else math.inf)
    return bit_rate, ticks, sent, armed, expiry


class TestTies:
    def test_word_end_and_run_ahead_timer_on_the_same_float_time(self):
        bit_rate, ticks, sent, armed, expiry = _tied_parameters()
        # The tie is real, and the timer was armed after the word began.
        assert sent + 16 / bit_rate == expiry == armed + ticks / 1e6
        assert sent < armed
        assert _fetch_times(bit_rate, ticks) == (sent, armed)

        net, receiver, _ = _tie_net(True, bit_rate, ticks)
        net.run(until=expiry - 1e-6)
        tied = [entry for entry in net.kernel.heap_entries()
                if entry[0] == expiry]
        callbacks = [entry[2].__name__ for entry in tied]
        # The receiver ran ahead: its timer holds the *earlier* handle,
        # yet the word (scheduled from the earlier clock) pops first.
        assert callbacks == ["_finish_word", "_expire"]
        (word_at, _, word_handle), (timer_at, _, timer_handle) = \
            [entry[1] for entry in tied]
        assert timer_handle < word_handle and word_at < timer_at
        net.run(until=TIE_HORIZON)

        reference, ref_receiver, _ = _tie_net(False, bit_rate, ticks)
        reference.run(until=TIE_HORIZON)
        log = [receiver.processor.dmem.peek(i) for i in range(3)]
        assert log == [ref_receiver.processor.dmem.peek(i)
                       for i in range(3)] == [2, 2, 1]
        assert network_digest(net) == network_digest(reference)


# -- lockstep: cores that meet at one instant keep the reference order --------

#: Sends one word, then halts (so its own TX-done token wakes nothing).
LOCKSTEP_SENDER = """
boot:
    movi r15, 0x2000
    movi r15, 0x1234
    halt
"""

#: r15 sequences a handler ends with.  ``cca`` senses the channel and
#: does extra work when it is busy, so the order of a carrier sense and
#: another node's transmit start at the same instant shows in the meter.
RADIO_OPS = {
    "tx": ["movi r15, 0x2000", "movi r15, 0x0abc"],
    "rx": ["movi r15, 0x1000", "movi r15, 0x1000"],
    "cca": ["movi r15, 0x1000", "movi r15, 0x5000", "mov r3, r15",
            "beqz r3, clear{0}", "add r7, r7", "add r7, r7", "clear{0}:"],
}


def lockstep_node(prefix, spin, ops):
    """Listens; on a word runs *prefix*, spins *spin* times, then the
    r15 sequences named by *ops*."""
    lines = ["boot:", "movi r1, 3", "movi r2, on_word", "setaddr r1, r2",
             "movi r1, 4", "movi r2, idle", "setaddr r1, r2",
             "movi r15, 0x1000", "done", "on_word:", "mov r3, r15"]
    lines += prefix
    if spin:
        lines += ["movi r4, %d" % spin, "spin:", "subi r4, 1",
                  "bnez r4, spin"]
    for index, op in enumerate(ops):
        lines += [line.format(index) for line in RADIO_OPS[op]]
    lines += ["done", "idle:", "done"]
    return "\n".join(line if line.endswith(":") else "    " + line
                     for line in lines)


def lockstep_digest(fast_path, programs, voltage=0.6, bit_error_rate=0.0):
    """Nodes running *programs* hear one word at the same instant."""
    config = CoreConfig(fast_path=fast_path, voltage=voltage)
    net = NetworkSimulator(bit_error_rate=bit_error_rate, seed=1)
    for node_id, program in enumerate(programs, start=1):
        net.add_node(node_id, program=build(program), config=config)
    net.add_node(len(programs) + 1, program=build(LOCKSTEP_SENDER),
                 config=config)
    net.run(until=0.004)
    return network_digest(net)


def test_lockstep_cores_keep_their_order_past_one_word():
    """Two nodes run the same handler, instruction for instruction,
    for longer than a word time, then one transmits at the instant the
    other senses the channel.  The one woken first runs ahead; the other
    catches up, overtakes it by up to a word time, and must still meet
    it in the reference engine's order."""
    programs = [lockstep_node([], 15000, ["tx"]),
                lockstep_node([], 15000, ["cca"])]
    digests = [lockstep_digest(fast_path, programs)
               for fast_path in (True, False)]
    assert digests[0] == digests[1]
    assert digests[0]["nodes"]["2"]["instructions"] > 30_000


def test_cores_meeting_after_different_histories_keep_their_order():
    """The two handlers start at one instant, run the same two
    instructions in opposite orders and land on the same float time.
    On the reference engine the node whose last instruction began
    earlier runs first from there on -- here the one woken second, which
    the fast engine runs after the other has already run ahead."""
    programs = [lockstep_node(["ld r6, 0(r0)", "add r7, r7"], 10, ["tx"]),
                lockstep_node(["add r7, r7", "ld r6, 0(r0)"], 10, ["cca"])]
    digests = [lockstep_digest(fast_path, programs)
               for fast_path in (True, False)]
    assert digests[0] == digests[1]


@st.composite
def lockstep_cases(draw):
    """Two or three handlers: permutations of one instruction list (so
    their clocks can meet), a shared spin, and radio operations."""
    instructions = st.sampled_from(["add r7, r7", "ld r6, 0(r0)",
                                    "sll r7, 1", "st r7, 1(r0)",
                                    "movi r8, 3"])
    prefix = draw(st.lists(instructions, min_size=1, max_size=4))
    spin = draw(st.sampled_from([0, 3, 40, 12000]))
    programs = []
    for _ in range(draw(st.integers(2, 3))):
        ops = draw(st.lists(st.sampled_from(sorted(RADIO_OPS)), min_size=1,
                            max_size=2))
        programs.append(lockstep_node(draw(st.permutations(prefix)), spin,
                                      ops))
    return {"programs": programs,
            "voltage": draw(st.sampled_from([0.6, 1.0])),
            "bit_error_rate": draw(st.sampled_from([0.0, 0.3]))}


def check_lockstep(case):
    assert lockstep_digest(True, **case) == lockstep_digest(False, **case)


@settings(max_examples=6, deadline=None)
@given(lockstep_cases())
def test_generated_lockstep_handlers_match_the_reference_engine(case):
    check_lockstep(case)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(lockstep_cases())
def test_generated_lockstep_handlers_match_the_reference_engine_slow(case):
    check_lockstep(case)


# -- the guest-driven multi-node differential ---------------------------------


def _network(fast_path, chain, comm_range, seed, period, bit_error_rate):
    net = build_convergecast(chain_length=chain, period_s=period, seed=seed,
                             fast_path=fast_path)
    net.channel.comm_range = comm_range
    net.channel.bit_error_rate = bit_error_rate
    return net


def _run(net, horizon):
    """Run to *horizon*; a guest fault is an outcome to compare too."""
    try:
        run_to(net, horizon)
    except Exception as error:  # noqa: BLE001 -- compared, not hidden
        return "%s: %s" % (type(error).__name__, error)
    return None


@st.composite
def networks(draw):
    return {
        "chain": draw(st.integers(2, 6)),
        "comm_range": draw(st.sampled_from([None, 0.9, 1.5, 2.0, 2.5,
                                            3.5])),
        "seed": draw(st.integers(0, 99)),
        "period": draw(st.sampled_from([0.01, 0.015, 0.02, 0.03, 0.05])),
        "bit_error_rate": draw(st.sampled_from([0.0, 0.0, 0.05])),
        "horizon": draw(st.floats(0.03, 0.15)),
        "cut": draw(st.floats(0.0, 1.0)),
    }


def check_network(case):
    params = (case["chain"], case["comm_range"], case["seed"],
              case["period"], case["bit_error_rate"])
    horizon = case["horizon"]
    reference = _network(False, *params)
    reference_error = _run(reference, horizon)
    fast = _network(True, *params)
    assert _run(fast, horizon) == reference_error
    assert network_digest(fast) == network_digest(reference)
    if reference_error is not None:
        return
    subject = _network(True, *params)
    start = subject.kernel.now
    run_to(subject, start + (horizon - start) * case["cut"])
    resumed = restore(Checkpoint.from_json(capture(subject).to_json()))
    run_to(resumed, horizon)
    assert network_digest(resumed) == network_digest(fast)


@settings(max_examples=5, deadline=None)
@given(networks())
def test_generated_networks_match_the_reference_engine(case):
    check_network(case)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(networks())
def test_generated_networks_match_the_reference_engine_slow(case):
    check_network(case)


# -- burst length and the traced stream ----------------------------------------


def _convergecast_cpus(fast_path=True, obs=None):
    result = convergecast(chain_length=4, period_s=0.1, duration_s=2.0,
                          seed=0, fast_path=fast_path, obs=obs)
    return result.metrics["nodes"].values()


@pytest.mark.parametrize("armed", [False, True], ids=["bare", "flight"])
def test_convergecast_bursts_are_long(armed):
    """Four times today's 1.6 instructions per burst; the flight
    recorder's rings are per node, so it keeps lookahead on."""
    obs = Observability(flight=True) if armed else None
    cpus = [node["cpu"] for node in _convergecast_cpus(obs=obs)]
    bursts = sum(cpu["bursts"] for cpu in cpus)
    retired = sum(cpu["burst_instructions"] for cpu in cpus)
    assert retired / bursts >= 6.4


def test_bus_sink_sees_the_reference_instruction_stream():
    streams = []
    for fast_path in (True, False):
        obs = Observability()
        sink = MemorySink()
        obs.bus.attach(sink)
        _convergecast_cpus(fast_path=fast_path, obs=obs)
        streams.append([event for event in sink.events
                        if isinstance(event, InstructionRetired)])
    assert len(streams[0]) > 40_000
    assert streams[0] == streams[1]


# -- the clock after a run ------------------------------------------------------

#: Spins for *count* iterations, then halts.
SPINNER = """
boot:
    movi r4, %d
spin:
    subi r4, 1
    bnez r4, spin
    halt
"""


def test_unbounded_run_ends_at_the_latest_time_reached():
    """The core that runs ahead halts *later* in simulated time than the
    one whose burst runs last; the clock still ends where the reference
    engine's does."""
    digests = []
    for fast_path in (True, False):
        config = CoreConfig(fast_path=fast_path)
        net = NetworkSimulator()
        net.add_node(1, program=build(SPINNER % 7000), config=config)
        net.add_node(2, program=build(SPINNER % 5000), config=config)
        net.run()
        digests.append(network_digest(net))
    assert digests[0] == digests[1]
    assert digests[0]["now"] > 5e-4
