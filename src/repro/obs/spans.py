"""Distributed packet-journey tracing.

The netstack runs as guest SNAP assembly, so packets cannot carry a
host-side trace id without changing the simulated byte stream (and the
observability layer must keep disabled runs bit-identical).  Instead the
:class:`JourneyTracker` *reconstructs* journeys from the word-level
events the radios and the channel already expose:

* each radio's transmit stream is reframed with the MAC's own framing
  rule (:func:`repro.netstack.mac.frame_total_words`), recovering every
  packet a node put on the air;
* the channel reports the per-receiver outcome of every word (clean,
  collision, noise, receiver not listening), so the tracker knows which
  radios heard the whole packet and which lost it, and why;
* hops are stitched into journeys by the protocol's hop-invariant
  identities (:func:`repro.netstack.aodv.journey_key`,
  :func:`repro.netstack.reliable.ack_journey_key`) -- the same keys the
  guest's duplicate-suppression logic uses.

Each reconstructed hop becomes a small tree of typed spans -- ``send``
(or ``forward``), ``air``, then per receiver ``receive`` / ``overhear``
/ ``drop``-with-reason, plus ``deliver`` at the journey's final
destination -- linked by parent ids into one tree per journey.  Spans
are emitted on the trace bus as :class:`~repro.obs.events.PacketSpan`
events (exported to Chrome tracing as flow events) and kept in
:class:`Journey` objects for tree rendering and per-hop tables.

Energy attribution is the radio energy of each span: transmit power
over the serialization window for sends, receive power over the
listening window for receives and overhears.  CPU energy stays with the
profiler's cost table (per ``(node, pc, handler, mnemonic)`` site),
which attributes it exactly.
"""

from dataclasses import dataclass
from typing import Optional

from repro.netstack.aodv import (
    PACKET_KIND_NAMES,
    is_no_route_forward,
    journey_destination,
    journey_key,
)
from repro.netstack.layout import ADDR_BROADCAST, checksum, inspect_packet
from repro.netstack.mac import MAX_FRAME_WORDS, frame_total_words
from repro.netstack.reliable import ack_journey_key
from repro.radio.transceiver import RadioConfig

#: Channel-delivery outcomes that leave a word in the receiver's hands.
_RECEIVED_OUTCOMES = frozenset(("ok", "flipped"))

#: Drop reasons, in blame order: the first failed word names the hop's
#: fate ("bit_error" covers both noise modes; "flipped" words surface
#: later as "bad_checksum" because the guest MAC catches them there).
_DROP_REASONS = {"collision": "collision", "noise": "bit_error",
                 "not_listening": "not_listening"}


@dataclass
class Span:
    """One node of a journey tree."""

    journey: int
    span: int
    parent: Optional[int]
    op: str
    node: str
    time: float
    duration: float
    energy: float
    pkt: str
    src: int
    dst: int
    seq: int
    words: int
    reason: Optional[str] = None


class Journey:
    """The reconstructed end-to-end life of one packet."""

    def __init__(self, journey_id, kind, key, origin, destination, seq):
        self.id = journey_id
        self.kind = kind
        self.key = key
        #: Node name that first put the packet on the air.
        self.origin = origin
        #: Node id the journey terminates at (protocol-dependent).
        self.destination = destination
        self.seq = seq
        self.spans = []
        self.t_start = None
        self.delivered_at = None
        self.drop_reasons = []
        #: Latest receive span per radio name, for forward-linking.
        self._last_receive = {}

    @property
    def delivered(self):
        return self.delivered_at is not None

    @property
    def forwards(self):
        return sum(1 for span in self.spans if span.op == "forward")

    @property
    def hop_count(self):
        """Transmissions this packet took (sends + forwards)."""
        return sum(1 for span in self.spans if span.op in ("send", "forward"))

    @property
    def latency(self):
        """Origin send start to final delivery, or ``None`` if undelivered."""
        if self.delivered_at is None or self.t_start is None:
            return None
        return self.delivered_at - self.t_start

    @property
    def energy(self):
        """Total radio energy attributed to this journey (joules)."""
        return sum(span.energy for span in self.spans)

    def summary(self):
        """A flat JSON-friendly digest of the journey."""
        return {
            "journey": self.id,
            "kind": self.kind,
            "origin": self.origin,
            "destination": self.destination,
            "seq": self.seq,
            "spans": len(self.spans),
            "hops": self.hop_count,
            "forwards": self.forwards,
            "delivered": self.delivered,
            "latency_s": self.latency,
            "energy_j": self.energy,
            "drop_reasons": list(self.drop_reasons),
        }

    def _describe(self, span):
        text = "%s %s @%.3fms" % (span.op, span.node, span.time * 1e3)
        if span.op in ("send", "forward", "air"):
            text += " %dw %.2fms" % (span.words, span.duration * 1e3)
        if span.energy:
            text += " %.1fnJ" % (span.energy * 1e9)
        if span.reason:
            text += " reason=%s" % span.reason
        return text

    def tree(self):
        """Render the span tree as indented text."""
        children = {}
        roots = []
        for span in self.spans:
            if span.parent is None:
                roots.append(span)
            else:
                children.setdefault(span.parent, []).append(span)
        header = "journey #%d %s seq=%d origin=%s" % (
            self.id, self.kind, self.seq, self.origin)
        if self.destination is not None:
            header += " dest=%s" % self.destination
        if self.delivered:
            header += " delivered (%.2fms, %d hops, %.1fnJ)" % (
                self.latency * 1e3, self.hop_count, self.energy * 1e9)
        elif self.drop_reasons:
            header += " dropped (%s)" % ", ".join(self.drop_reasons)
        else:
            header += " in flight"
        lines = [header]

        def render(span, depth):
            lines.append("  " * depth + self._describe(span))
            for child in children.get(span.span, ()):
                render(child, depth + 1)

        for root in roots:
            render(root, 1)
        return "\n".join(lines)


class _TxStream:
    """Reframing state for one radio's transmit word stream."""

    __slots__ = ("words", "t_start", "t_end", "deliveries", "complete")

    def __init__(self):
        self.reset()

    def reset(self):
        self.words = []
        self.t_start = None
        self.t_end = None
        #: receiver radio name -> [(delivered_word, outcome), ...]
        self.deliveries = {}
        self.complete = False


class _NodeInfo:
    """Registered identity and radio physics of one node."""

    __slots__ = ("node_id", "name", "word_duration", "tx_power", "rx_power")

    def __init__(self, node_id, name, config):
        self.node_id = node_id
        self.name = name
        self.word_duration = config.word_duration
        self.tx_power = config.tx_power_w
        self.rx_power = config.rx_power_w


class JourneyTracker:
    """Reconstructs packet journeys from radio and channel word events.

    Created by ``Observability(journeys=True)``; fed through the
    observability hooks, never directly by components.  Emits
    :class:`~repro.obs.events.PacketSpan` events on the trace bus and
    retains :class:`Journey` objects (up to *max_journeys*, oldest
    evicted first) for reports.
    """

    def __init__(self, obs, max_journeys=10_000):
        self._obs = obs
        self._max_journeys = max_journeys
        self.journeys = []
        self._by_key = {}
        self._streams = {}
        self._info = {}
        self._next_journey = 1
        self._next_span = 1

    # -- registration ---------------------------------------------------------

    def register(self, node_id, name, radio_name, radio_config):
        """Register a node's identity and radio physics (called when a
        node attaches observability)."""
        self._info[radio_name] = _NodeInfo(node_id, name, radio_config)

    def _node_info(self, radio_name):
        info = self._info.get(radio_name)
        if info is None:
            # Unregistered radio (bare Radio in a harness): fall back to
            # default physics and the radio's own name.
            name = radio_name[:-6] if radio_name.endswith(".radio") \
                else radio_name
            info = _NodeInfo(None, name, RadioConfig())
            self._info[radio_name] = info
        return info

    # -- word-level feed (via Observability hooks) ----------------------------

    def radio_tx(self, radio_name, time, word):
        """One word finished serializing at *radio_name*."""
        stream = self._streams.get(radio_name)
        if stream is None:
            stream = self._streams[radio_name] = _TxStream()
        if stream.complete:
            # Channel-less radios never get word_done; finalize late.
            self._finalize(radio_name, stream)
        info = self._node_info(radio_name)
        if not stream.words:
            stream.t_start = time - info.word_duration
        stream.words.append(word)
        stream.t_end = time
        total = frame_total_words(stream.words)
        if total is not None and len(stream.words) >= total:
            stream.complete = True
        elif total is None and len(stream.words) >= MAX_FRAME_WORDS:
            # Unframeable stream (raw words, wild length): resynchronize
            # exactly like the guest MAC does.
            stream.reset()

    def channel_delivery(self, sender, receiver, time, word, outcome):
        """The channel resolved one word at one receiver."""
        stream = self._streams.get(sender)
        if stream is None or not stream.words:
            return
        stream.deliveries.setdefault(receiver, []).append((word, outcome))

    def word_done(self, sender, time):
        """The channel finished fanning one of *sender*'s words out."""
        stream = self._streams.get(sender)
        if stream is not None and stream.complete:
            self._finalize(sender, stream)

    def flush(self):
        """Finalize any complete frames still buffered (end of run)."""
        for radio_name, stream in self._streams.items():
            if stream.complete:
                self._finalize(radio_name, stream)

    # -- journey assembly -----------------------------------------------------

    def _classify(self, packet):
        kind = PACKET_KIND_NAMES.get(packet["type"])
        key = journey_key(packet)
        destination = journey_destination(packet)
        if key is None:
            key = ack_journey_key(packet)
            if key is not None:
                kind = "ack"
                destination = packet["dst"]
        if key is None:
            kind = kind or ("pkt%d" % packet["type"])
            key = (kind, packet["src"], packet["dst"], packet["seq"])
        return kind, key, destination

    def _journey(self, kind, key, origin, destination, seq):
        journey = self._by_key.get(key)
        if journey is None:
            journey = Journey(self._next_journey, kind, key, origin,
                              destination, seq)
            self._next_journey += 1
            self.journeys.append(journey)
            self._by_key[key] = journey
            if self._obs is not None:
                self._obs.metrics.counter("net.journeys").inc()
            if len(self.journeys) > self._max_journeys:
                oldest = self.journeys.pop(0)
                if self._by_key.get(oldest.key) is oldest:
                    del self._by_key[oldest.key]
        return journey

    def _span(self, journey, parent, op, node, time, duration, energy,
              packet, words, reason=None):
        span = Span(journey=journey.id, span=self._next_span, parent=parent,
                    op=op, node=node, time=time, duration=duration,
                    energy=energy, pkt=journey.kind, src=packet["src"],
                    dst=packet["dst"], seq=packet["seq"], words=words,
                    reason=reason)
        self._next_span += 1
        journey.spans.append(span)
        if self._obs is not None:
            self._obs.packet_span(span)
        return span

    def _finalize(self, radio_name, stream):
        words = stream.words
        t_start, t_end = stream.t_start, stream.t_end
        deliveries = stream.deliveries
        stream.reset()

        packet = inspect_packet(words)
        if packet is None:
            return
        info = self._node_info(radio_name)
        metrics = self._obs.metrics if self._obs is not None else None

        kind, key, destination = self._classify(packet)
        journey = self._journey(kind, key, info.name, destination,
                                packet["seq"])
        if journey.t_start is None:
            journey.t_start = t_start

        parent_receive = journey._last_receive.get(radio_name)
        op = "send" if parent_receive is None else "forward"
        parent = None if parent_receive is None else parent_receive.span
        duration = t_end - t_start
        tx_energy = len(words) * info.word_duration * info.tx_power
        send = self._span(journey, parent, op, info.name, t_start, duration,
                          tx_energy, packet, len(words))

        # A DATA packet addressed to broadcast is a failed route lookup
        # (aodv_forward wrote rt_lookup's 0xFFFF miss into the header).
        if is_no_route_forward(packet):
            self._span(journey, send.span, "drop", info.name, t_end, 0.0,
                       0.0, packet, len(words), reason="no_route")
            journey.drop_reasons.append("no_route")
            if metrics is not None:
                metrics.counter("net.drops.no_route").inc()

        air = self._span(journey, send.span, "air", "channel", t_start,
                         duration, 0.0, packet, len(words))

        for receiver, outcomes in deliveries.items():
            self._resolve_receiver(journey, air, packet, words, receiver,
                                   outcomes, send, t_end, metrics)

    def _resolve_receiver(self, journey, air, packet, words, receiver,
                          outcomes, send, t_end, metrics):
        rinfo = self._node_info(receiver)
        rx_energy = len(outcomes) * rinfo.word_duration * rinfo.rx_power
        failed = next((outcome for _, outcome in outcomes
                       if outcome not in _RECEIVED_OUTCOMES), None)
        if failed is None and len(outcomes) == len(words):
            delivered = [word for word, _ in outcomes]
            if checksum(delivered[:-1]) != delivered[-1]:
                reason = "bad_checksum"
            else:
                reason = None
        elif failed is None:
            reason = "truncated"
        else:
            reason = _DROP_REASONS.get(failed, failed)

        if reason is not None:
            self._span(journey, air.span, "drop", rinfo.name, t_end, 0.0,
                       rx_energy, packet, len(outcomes), reason=reason)
            journey.drop_reasons.append(reason)
            if metrics is not None:
                metrics.counter("net.drops." + reason).inc()
            return

        # A clean packet.  The guest MAC filter only passes frames for
        # this node or broadcast; overheard unicasts cost listen energy
        # but do not advance the journey.
        if (rinfo.node_id is not None
                and packet["dst"] not in (rinfo.node_id, ADDR_BROADCAST)):
            self._span(journey, air.span, "overhear", rinfo.name, t_end,
                       len(words) * rinfo.word_duration, rx_energy,
                       packet, len(words))
            return

        receive = self._span(journey, air.span, "receive", rinfo.name, t_end,
                             len(words) * rinfo.word_duration, rx_energy,
                             packet, len(words))
        journey._last_receive[receiver] = receive
        if metrics is not None:
            metrics.histogram("net.hop_latency_s").observe(
                receive.time - send.time)
        if (rinfo.node_id is not None
                and journey.destination == rinfo.node_id):
            self._span(journey, receive.span, "deliver", rinfo.name, t_end,
                       0.0, 0.0, packet, len(words))
            journey.delivered_at = t_end
            if metrics is not None:
                metrics.counter("net.journeys_delivered").inc()
                if journey.latency is not None:
                    metrics.histogram("net.journey_latency_s").observe(
                        journey.latency)

    # -- reports --------------------------------------------------------------

    def summaries(self):
        """Flat digests of every retained journey."""
        return [journey.summary() for journey in self.journeys]

    def hop_rows(self):
        """Per-hop table rows across all journeys.

        One row per (transmission, receiver outcome): journey id, packet
        kind, hop index within the journey, sender, receiver, outcome
        (``receive``/``overhear``/drop reason), hop latency in seconds,
        words on the air, and the hop's radio energy (tx + that
        receiver's rx) in joules.
        """
        rows = []
        for journey in self.journeys:
            spans = {span.span: span for span in journey.spans}
            hop_index = {}
            hops = 0
            for span in journey.spans:
                if span.op in ("send", "forward"):
                    hops += 1
                    hop_index[span.span] = hops
            for span in journey.spans:
                if span.op not in ("receive", "overhear", "drop"):
                    continue
                air = spans.get(span.parent)
                if air is None:
                    continue
                send = spans.get(air.parent) if air.op == "air" else air
                if send is None:
                    continue
                rows.append({
                    "journey": journey.id,
                    "kind": journey.kind,
                    "hop": hop_index.get(send.span, 0),
                    "from": send.node,
                    "to": span.node,
                    "outcome": span.reason or span.op,
                    "latency_s": span.time - send.time,
                    "words": send.words,
                    "energy_j": send.energy + span.energy,
                })
        return rows

    def report(self):
        """Every journey tree, rendered as text."""
        return "\n\n".join(journey.tree() for journey in self.journeys)
