"""The observability overhead budget.

Two guarantees the scorecard's collectors rely on:

* **bit-identical results** -- attaching an (inert) ``Observability``
  must not change what the simulator computes, and a run with hooks
  disabled must reproduce the committed golden digest exactly;
* **bounded wall-time cost** -- metrics-only observability (no trace
  sinks attached) stays within a fixed factor of a hookless run, so
  leaving the hooks wired through the benchmark suite is affordable.
"""

import json
import os
import time

from repro.asm import build
from repro.core import CoreConfig, SnapProcessor
from repro.obs import Observability
from repro.sensors.ports import LedPort

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "obs_budget_digest.json")

#: Inert observability (metrics only, no sinks) and the blackbox may
#: cost at most this factor over a hookless run.  Over 15 repeats on a
#: 2-vCPU x86-64 VM, inert/bare measured 1.6x median (2.1x max) and
#: blackbox/bare 2.0x median (2.3x max); the margin absorbs CI noise
#: while still catching a hook that builds events nobody reads.
BUDGET_FACTOR = 3.5

BLINK = """
boot:
    movi r1, 0
    movi r2, handler
    setaddr r1, r2
    movi r1, 0
    movi r2, 100
    schedlo r1, r2
    done
handler:
    ld r3, 0(r0)
    xori r3, 1
    st r3, 0(r0)
    movi r4, 0x4000
    or r4, r3
    mov r15, r4
    movi r1, 0
    movi r2, 100
    schedlo r1, r2
    done
"""


def _run(obs=None, until=0.02):
    processor = SnapProcessor(config=CoreConfig(voltage=0.6))
    processor.mcp.attach_port(0, LedPort())
    processor.load(build(BLINK))
    if obs is not None:
        processor.attach_observability(obs)
    processor.run(until=until)
    return processor


def _digest(processor):
    meter = processor.meter
    return {"instructions": meter.instructions,
            "wakeups": meter.wakeups,
            "energy_pj": round(meter.total_energy * 1e12, 6),
            "dmem0": processor.dmem.peek(0),
            "sim_time_s": processor.kernel.now}


def _best_of(n, factory):
    times = []
    for _ in range(n):
        started = time.perf_counter()
        _run(obs=factory())
        times.append(time.perf_counter() - started)
    return min(times)


class TestBitIdentical:
    def test_hookless_run_matches_golden_digest(self):
        digest = _digest(_run(obs=None))
        with open(GOLDEN) as handle:
            assert digest == json.load(handle)

    def test_attached_observability_changes_nothing(self):
        plain = _digest(_run(obs=None))
        observed = _digest(_run(obs=Observability()))
        profiled = _digest(_run(obs=Observability(profile=True)))
        assert observed == plain
        assert profiled == plain


class TestWallTimeBudget:
    def test_inert_observability_within_budget(self):
        # Best-of-3 on both sides to shed scheduler noise.
        plain = _best_of(3, lambda: None)
        inert = _best_of(3, lambda: Observability())
        assert inert <= plain * BUDGET_FACTOR, (
            "inert observability cost %.1fx (budget %.1fx): %.4fs vs %.4fs"
            % (inert / plain, BUDGET_FACTOR, inert, plain))

    def test_blackbox_within_budget(self):
        from repro.obs import Blackbox

        def boxed():
            box = Blackbox(bundle_dir=None)
            return box.obs

        plain = _best_of(3, lambda: None)
        black = _best_of(3, boxed)
        assert black <= plain * BUDGET_FACTOR, (
            "blackbox recording cost %.1fx (budget %.1fx): %.4fs vs %.4fs"
            % (black / plain, BUDGET_FACTOR, black, plain))


class TestCheapWhenArmed:
    """Without bus sinks the per-instruction hook builds no event."""

    def test_no_sinks_never_disassembles(self, monkeypatch):
        from repro.isa.instruction import Instruction

        def refuse(instruction):
            raise AssertionError("Instruction.text() called with no sinks")

        monkeypatch.setattr(Instruction, "text", refuse)
        obs = Observability(flight=True)
        processor = _run(obs=obs)
        name = processor.name
        assert obs.metrics.counter(name + ".instructions").value \
            == processor.meter.instructions > 0
        assert len(obs.flight.instruction_tail(name)) > 0

    def test_sink_attached_mid_run_starts_the_stream(self):
        from repro.obs import MemorySink

        obs = Observability(profile=True)
        processor = SnapProcessor(config=CoreConfig(voltage=0.6))
        processor.mcp.attach_port(0, LedPort())
        processor.load(build(BLINK))
        processor.attach_observability(obs)
        processor.run(until=0.01)
        before = processor.meter.instructions
        attached_at = processor.kernel.now
        sink = obs.bus.attach(MemorySink())
        processor.run(until=0.02)
        retired = [event for event in sink.events
                   if event.kind == "instruction"]
        assert len(retired) == processor.meter.instructions - before > 0
        assert all(event.time >= attached_at for event in retired)
        assert all(event.mnemonic for event in retired)
        # The profiler is a sink from the start: it saw every instruction.
        assert obs.profiler.instructions == processor.meter.instructions


class TestBlackboxBitIdentical:
    """The flight recorder + watchdog must be pure observers: enabling
    them leaves the meter digests of the paper's scenarios bit-identical
    (the full-precision digest, not the rounded one above)."""

    def test_fig5_blink_digest_identical(self):
        from repro.sim.checkpoint import meter_digest
        from repro.netstack import build_blink_app
        from repro.node.node import SensorNode
        from repro.obs import Blackbox

        def blink(box):
            node = SensorNode(node_id=0)
            node.load(build_blink_app(period_ticks=1000))
            if box is not None:
                box.observe(node)
            node.run(until=0.25)
            return meter_digest(node.processor)

        plain = blink(None)
        boxed = blink(Blackbox(bundle_dir=None))
        assert boxed == plain

    def test_convergecast_digest_identical(self):
        from repro.network.experiments import convergecast
        from repro.obs import Blackbox

        plain = convergecast(duration_s=0.5)
        box = Blackbox(bundle_dir=None)
        boxed = convergecast(duration_s=0.5, obs=box)
        assert box.watchdog.checks_run > 0, "watchdog never ran"
        for node_id, report in plain.nodes.items():
            other = boxed.nodes[node_id]
            assert other.instructions == report.instructions
            assert other.energy_j == report.energy_j
        assert boxed.sink_deliveries == plain.sink_deliveries


class TestFlightRecorderBudget:
    """Property test: the recorder's rings never exceed their entry or
    byte budgets, no matter how much traffic is pushed through them."""

    def test_ring_budget_under_random_traffic(self):
        from hypothesis import given, settings, strategies as st

        from repro.obs.blackbox import FlightRecorder

        @settings(max_examples=50, deadline=None)
        @given(st.lists(
            st.tuples(st.integers(0, 3),          # node index
                      st.integers(0, 2047),       # pc
                      st.booleans()),              # instruction vs event
            min_size=0, max_size=600),
            st.integers(1, 32), st.integers(1, 32))
        def run(feed, instruction_limit, event_limit):
            recorder = FlightRecorder(instruction_limit=instruction_limit,
                                      event_limit=event_limit)
            instruction = _decoded_instruction()
            for node_index, pc, is_instruction in feed:
                node = "node%d" % node_index
                if is_instruction:
                    recorder.record_instruction(node, 0.0, pc, instruction,
                                                "boot", 1e-12)
                else:
                    recorder.record_event("eq.insert", node, 0.0, pc)
            nodes = max(1, len(recorder.nodes))
            assert recorder.entry_count() <= recorder.max_entries(nodes)
            for node in recorder.nodes:
                assert len(recorder.instruction_tail(node)) \
                    <= instruction_limit
            assert len(recorder.event_tail()) <= event_limit
            # Byte budget: a bounded per-entry footprint times the entry
            # ceiling (entries are flat tuples of scalars).
            assert recorder.approx_size_bytes() \
                <= 200 * recorder.max_entries(nodes)
            snapshot = recorder.snapshot()
            total = (sum(len(tail)
                         for tail in snapshot["instructions"].values())
                     + len(snapshot["events"]))
            assert total == recorder.entry_count()

        run()

    def test_long_run_stays_bounded(self):
        from repro.netstack import build_blink_app
        from repro.node.node import SensorNode
        from repro.obs import Blackbox

        box = Blackbox(bundle_dir=None)
        node = SensorNode(node_id=0)
        node.load(build_blink_app(period_ticks=1000))
        box.observe(node)
        node.run(until=1.0)
        recorder = box.recorder
        assert node.meter.instructions > recorder.instruction_limit
        assert recorder.entry_count() <= recorder.max_entries()


def _decoded_instruction():
    """One real decoded instruction for feeding the recorder directly."""
    from repro.isa.encoding import decode
    from repro.asm import assemble
    module = assemble("boot:\n    movi r1, 5\n", name="t")
    instruction, _ = decode(module.text)
    return instruction
