"""The channel against a brute-force oracle, and its caches and window.

:class:`OracleChannel` keeps the channel's plain algorithm -- an
``in_range`` call for every radio pair on every word and every completed
word kept forever -- so generated topologies run through both must agree
on every node's state and on the fate of every word at every receiver.
The remaining tests pin the neighbour-cache invalidation (moves and range
changes mid-run) and the bounded, checkpointed overlap window.

The property test runs a small budget in the tier-1 suite; its ``slow``
twin runs a larger one (``-m slow`` or ``-o addopts=``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.experiments import build_convergecast
from repro.network.simulator import NetworkSimulator
from repro.obs import Observability
from repro.radio.channel import Channel
from repro.sim import capture, network_digest, restore


class OracleChannel(Channel):
    """The channel without neighbour caches or a pruned window."""

    def busy_near(self, radio):
        return any(other is not radio and self.in_range(other, radio)
                   for other in self._active)

    def _neighbours_of(self, radio):
        return tuple(other for other in self._radios
                     if other is not radio and self.in_range(radio, other)), \
            None

    def _collided(self, sender, receiver, start, end):
        for other, (other_start, other_end) in self._active.items():
            if other is sender:
                continue
            if self.in_range(other, receiver) and other_start < end \
                    and start < other_end:
                return True
        for other, other_start, other_end in self._recent:
            if other is sender:
                continue
            if self.in_range(other, receiver) and other_start < end \
                    and start < other_end:
                return True
        return False

    def _gc(self, now):
        pass


class FateLog(Observability):
    """Records every (time, sender, word, fate) per receiver."""

    def __init__(self):
        super().__init__()
        self.fates = {}

    def channel_delivery(self, sender, receiver, time, word, outcome):
        self.fates.setdefault(receiver, []).append(
            (time, sender, word, outcome))


WORD_S = 16 / 19_200.0

_ranges = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]))
_cells = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def topologies(draw):
    """Radios on a grid, host-driven: word bursts, receive toggles,
    carrier-sense probes, moves and range changes at random times."""
    radios = draw(st.integers(2, 8))
    times = st.integers(0, 40).map(lambda slot: slot * WORD_S / 4)
    index = st.integers(0, radios - 1)
    return {
        "positions": draw(st.lists(_cells, min_size=radios,
                                   max_size=radios)),
        "comm_range": draw(_ranges),
        "bit_error_rate": draw(st.sampled_from([0.0, 0.1, 0.5])),
        "corruption": draw(st.sampled_from(["drop", "flip"])),
        "seed": draw(st.integers(0, 2 ** 16)),
        "bursts": draw(st.lists(
            st.tuples(times, index, st.lists(st.integers(0, 0xFFFF),
                                             min_size=1, max_size=4)),
            max_size=12)),
        "listen": draw(st.lists(st.tuples(times, index, st.booleans()),
                                max_size=6)),
        "probes": draw(st.lists(st.tuples(times, index), max_size=6)),
        "moves": draw(st.lists(st.tuples(times, index, _cells),
                               max_size=3)),
        "ranges": draw(st.lists(st.tuples(times, _ranges), max_size=2)),
    }


def _run(topology, channel_class):
    net = NetworkSimulator()
    net.channel = channel_class(comm_range=topology["comm_range"],
                                bit_error_rate=topology["bit_error_rate"],
                                seed=topology["seed"],
                                corruption=topology["corruption"])
    log = FateLog()
    net.channel.obs = log
    nodes = [net.add_node(node_id, position=(float(x), float(y)))
             for node_id, (x, y) in enumerate(topology["positions"], 1)]
    # No program runs on the cores, so the harness reads each received
    # word off the message coprocessor, as a core would; otherwise a
    # receiver's 16-word outgoing FIFO overflows on a long burst.
    inboxes = {}
    for node in nodes:
        node.radio.set_receive(True)
        mcp = node.processor.mcp
        inbox = inboxes.setdefault(node.node_id, [])
        mcp.on_outgoing_data.append(
            lambda fifo=mcp.outgoing, inbox=inbox: inbox.append(
                (net.kernel.now, fifo.pop())))
    schedule = net.kernel.schedule
    for delay, target, words in topology["bursts"]:
        for word in words:
            schedule(delay, nodes[target].radio.transmit, word)
    for delay, target, enabled in topology["listen"]:
        schedule(delay, nodes[target].radio.set_receive, enabled)
    sensed = []
    for delay, target in topology["probes"]:
        schedule(delay, lambda radio=nodes[target].radio: sensed.append(
            (net.kernel.now, radio.name, radio.carrier_sense())))
    for delay, target, (x, y) in topology["moves"]:
        schedule(delay, setattr, nodes[target], "position",
                 (float(x), float(y)))
    for delay, comm_range in topology["ranges"]:
        schedule(delay, setattr, net.channel, "comm_range", comm_range)
    net.run(until=0.05)
    return network_digest(net), log.fates, sensed, inboxes


def _check_against_oracle(topology):
    assert _run(topology, Channel) == _run(topology, OracleChannel)


@settings(max_examples=25, deadline=None)
@given(topologies())
def test_channel_matches_oracle(topology):
    _check_against_oracle(topology)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(topologies())
def test_channel_matches_oracle_long(topology):
    _check_against_oracle(topology)


# -- neighbour-cache invalidation ---------------------------------------------


def _pair(comm_range=1.5):
    """Two radios one unit apart; returns (net, sender, receiver, words
    the receiver got)."""
    net = NetworkSimulator(comm_range=comm_range)
    sender = net.add_node(1, position=(0.0, 0.0))
    receiver = net.add_node(2, position=(1.0, 0.0))
    receiver.radio.set_receive(True)
    received = []
    receiver.radio.on_word_received = received.append
    return net, sender, receiver, received


def _send(net, sender, word):
    sender.radio.transmit(word)
    net.run(until=net.kernel.now + 2 * WORD_S)


def test_moving_a_node_out_of_range_and_back():
    net, sender, receiver, received = _pair()
    _send(net, sender, 1)
    receiver.position = (5.0, 0.0)
    _send(net, sender, 2)
    receiver.position = (1.0, 0.0)
    _send(net, sender, 3)
    assert received == [1, 3]


def test_changing_comm_range_after_join():
    net, sender, _, received = _pair()
    _send(net, sender, 1)
    net.channel.comm_range = 0.5
    _send(net, sender, 2)
    net.channel.comm_range = None
    _send(net, sender, 3)
    assert received == [1, 3]


def test_carrier_sense_follows_a_move():
    net, sender, receiver, _ = _pair()
    sender.radio.transmit(1)
    assert receiver.radio.carrier_sense()
    receiver.position = (5.0, 0.0)
    assert not receiver.radio.carrier_sense()


# -- the overlap window across checkpoints -------------------------------------


def test_convergecast_32_window_is_bounded_and_round_trips():
    net = build_convergecast(chain_length=32)
    net.run(until=0.45)
    checkpoint = capture(net)
    recent = checkpoint.data["channel"]["recent"]
    assert recent, "no words in the overlap window at the capture point"
    # The window spans two word durations back from the newest word's
    # end, and a radio ends at most three words in it.
    newest = max(end for _, _, end in recent)
    assert all(end >= newest - 2 * WORD_S for _, _, end in recent)
    assert len(recent) <= 3 * len(net.nodes)

    clone = restore(checkpoint)
    net.run(until=0.6)
    clone.run(until=0.6)
    assert network_digest(clone) == network_digest(net)
