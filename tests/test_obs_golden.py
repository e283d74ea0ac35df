"""Golden-trace regression tests.

Two canonical workloads -- the blink handler and a one-word packet
receive -- are run under the trace bus, reduced to their *stable* fields
(event types, ordering, PCs, mnemonics, handler tags, queue depths,
radio words; no floats), and compared against checked-in goldens under
``tests/goldens/``.

A change to the decode/dispatch/radio pipeline that reorders or reshapes
the event stream fails these tests.  If the change is intentional,
regenerate with::

    PYTHONPATH=src python tests/test_obs_golden.py --regen
"""

import json
import os

from repro.asm import build
from repro.core import CoreConfig
from repro.netstack import layout
from repro.netstack.drivers import build_aodv_node, build_tx_node
from repro.network import NetworkSimulator
from repro.node import SensorNode
from repro.obs import KindFilter, MemorySink, Observability, project_trace
from repro.scenarios import stage_and_send

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

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
    mov r15, r4          ; write LED port
    movi r1, 0
    movi r2, 100
    schedlo r1, r2
    done
"""

SENDER = """
boot:
    movi r1, 4           ; RADIO_TX_DONE -> ignore handler
    movi r2, idle
    setaddr r1, r2
    movi r15, 0x2000     ; TX command
    movi r15, 0x1234     ; data word
    done
idle:
    done
"""

RECEIVER = """
boot:
    movi r1, 3           ; RADIO_RX event
    movi r2, on_word
    setaddr r1, r2
    movi r15, 0x1000     ; RX command
    done
on_word:
    mov r3, r15
    st r3, 0(r0)
    done
"""


def stable_trace(events):
    """Reduce trace events to their golden (float-free) projection.

    The projection itself lives in :mod:`repro.obs.project` (shared
    with the telemetry goldens and the snap-diff alignment engine).
    """
    return project_trace(events)


def blink_trace():
    """Boot plus two timer-handler invocations on a single node."""
    obs = Observability()
    sink = obs.bus.attach(MemorySink())
    node = SensorNode(config=CoreConfig(voltage=0.6))
    node.load(build(BLINK))
    node.attach_observability(obs)
    node.run(until=0.00025)
    return stable_trace(sink.events)


def packet_receive_trace():
    """One word sent over the air between two nodes."""
    obs = Observability()
    sink = obs.bus.attach(MemorySink())
    net = NetworkSimulator()
    net.attach_observability(obs)
    net.add_node(0, program=build(SENDER))
    net.add_node(1, program=build(RECEIVER))
    net.run(until=0.05)
    return stable_trace(sink.events)


def _journey_net(bit_error_rate=0.0, corruption="drop"):
    """A two-node net (TX driver + AODV node) traced for journeys only."""
    obs = Observability(journeys=True)
    sink = MemorySink()
    obs.bus.attach(KindFilter(("span",), sink))
    net = NetworkSimulator(comm_range=1.5, bit_error_rate=bit_error_rate,
                           corruption=corruption)
    net.attach_observability(obs)
    config = CoreConfig(voltage=0.6)
    net.add_node(1, program=build_tx_node(1), position=(0.0, 0.0),
                 config=config)
    net.add_node(2, program=build_aodv_node(2), position=(1.0, 0.0),
                 config=config)
    net.run(until=0.01)
    return net, obs, sink


def journey_bit_error_trace():
    """A DATA packet whose every word the channel corrupts: the journey
    tree must end in a ``bit_error`` drop at the receiver."""
    net, obs, sink = _journey_net(bit_error_rate=1.0, corruption="drop")
    packet = layout.make_packet(dst=2, src=1, pkt_type=layout.PKT_TYPE_DATA,
                                seq=0, payload=[2, 0x111, 0x222])
    stage_and_send(net.nodes[1], packet)
    net.run(until=net.kernel.now + 0.1)
    obs.journeys.flush()
    return stable_trace(sink.events)


def journey_no_route_trace():
    """A DATA packet for an unknown destination: the AODV relay's route
    lookup misses and the journey tree records a ``no_route`` drop."""
    net, obs, sink = _journey_net()
    packet = layout.make_packet(dst=2, src=1, pkt_type=layout.PKT_TYPE_DATA,
                                seq=0, payload=[0x7F, 0x111, 0x222])
    stage_and_send(net.nodes[1], packet)
    net.run(until=net.kernel.now + 0.1)
    obs.journeys.flush()
    return stable_trace(sink.events)


GOLDENS = {
    "blink_trace.json": blink_trace,
    "packet_receive_trace.json": packet_receive_trace,
    "journey_bit_error_trace.json": journey_bit_error_trace,
    "journey_no_route_trace.json": journey_no_route_trace,
}


def _load(name):
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        return json.load(handle)


def _diff_message(name, expected, actual):
    lines = ["golden %s: %d events expected, %d produced"
             % (name, len(expected), len(actual))]
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            lines.append("first mismatch at event %d:" % index)
            lines.append("  expected %r" % (want,))
            lines.append("  actual   %r" % (got,))
            break
    lines.append("if intentional: PYTHONPATH=src python %s --regen"
                 % os.path.relpath(__file__))
    return "\n".join(lines)


class TestGoldenTraces:
    def test_blink_trace_matches_golden(self):
        expected, actual = _load("blink_trace.json"), blink_trace()
        assert actual == expected, \
            _diff_message("blink_trace.json", expected, actual)

    def test_packet_receive_trace_matches_golden(self):
        expected = _load("packet_receive_trace.json")
        actual = packet_receive_trace()
        assert actual == expected, \
            _diff_message("packet_receive_trace.json", expected, actual)

    def test_goldens_have_expected_shape(self):
        blink = _load("blink_trace.json")
        kinds = [record["type"] for record in blink]
        assert kinds.count("dispatch") >= 2      # two timer-handler runs
        assert "sleep" in kinds and "wakeup" in kinds
        assert not any("time" in record or "energy" in record
                       for record in blink), "goldens must stay float-free"

        packet = _load("packet_receive_trace.json")
        kinds = [record["type"] for record in packet]
        assert "radio_tx" in kinds and "radio_rx" in kinds
        assert kinds.index("radio_tx") < kinds.index("radio_rx")

    def test_journey_bit_error_trace_matches_golden(self):
        expected = _load("journey_bit_error_trace.json")
        actual = journey_bit_error_trace()
        assert actual == expected, \
            _diff_message("journey_bit_error_trace.json", expected, actual)

    def test_journey_no_route_trace_matches_golden(self):
        expected = _load("journey_no_route_trace.json")
        actual = journey_no_route_trace()
        assert actual == expected, \
            _diff_message("journey_no_route_trace.json", expected, actual)

    def test_journey_goldens_record_drop_reasons(self):
        bit_error = _load("journey_bit_error_trace.json")
        assert all(record["type"] == "span" for record in bit_error)
        ops = [record["op"] for record in bit_error]
        assert "send" in ops and "air" in ops
        drops = [record for record in bit_error if record["op"] == "drop"]
        assert any(record["reason"] == "bit_error" for record in drops)
        # Drop spans hang off the air span of the same journey tree.
        spans = {record["span"]: record for record in bit_error}
        for record in drops:
            if record["reason"] != "bit_error":
                continue
            air = spans[record["parent"]]
            assert air["op"] == "air"
            assert air["journey"] == record["journey"]

        no_route = _load("journey_no_route_trace.json")
        ops = [record["op"] for record in no_route]
        assert "receive" in ops and "forward" in ops
        drops = [record for record in no_route if record["op"] == "drop"]
        assert any(record["reason"] == "no_route" for record in drops)


def regen():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, produce in GOLDENS.items():
        path = os.path.join(GOLDEN_DIR, name)
        trace = produce()
        with open(path, "w") as handle:
            json.dump(trace, handle, indent=1)
            handle.write("\n")
        print("wrote %s (%d events)" % (path, len(trace)))


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
