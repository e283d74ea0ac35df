"""The :class:`Observability` context: one trace bus + one metrics
registry + an optional profiler (the one per-instruction cost table),
shared by every instrumented component.

Components (processor, event queue, coprocessor, radio, channel) keep an
``obs`` attribute that defaults to ``None`` and guard each hook call with
``if self.obs is not None`` -- the disabled path touches no observability
code, so simulation results are bit-identical with and without the layer
(verified by ``tests/test_obs_profiler.py``).

The hook methods below are the single funnel: they update the metrics
registry and emit one typed event onto the bus.  Metric names are dotted
``<component>.<metric>`` paths; see ``docs/OBSERVABILITY.md`` for the
full catalogue.
"""

from repro.obs.bus import TraceBus
from repro.obs.events import (
    CoprocessorCommand,
    EnergySample,
    EventDropped,
    EventEnqueued,
    HandlerDispatch,
    InstructionRetired,
    PacketSpan,
    RadioDrop,
    RadioRx,
    RadioTx,
    SleepEnter,
    TimelineSample,
    Wakeup,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler


class Observability:
    """Bundles the trace bus, metrics registry, optional profiler, and
    optional packet-journey tracker."""

    def __init__(self, bus=None, metrics=None, profile=False, journeys=False,
                 flight=False, energy=False):
        self.bus = bus if bus is not None else TraceBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The context's one cost table; the energy ledger reads it too,
        #: so ``energy=True`` arms it as well.
        self.profiler = None
        if profile or energy:
            self.profiler = self.bus.attach(Profiler())
        #: Optional :class:`~repro.obs.energy.EnergyLedger` attributing
        #: every picojoule to source lines, layers, and packets.
        self.energy = None
        if energy:
            from repro.obs.energy import EnergyLedger
            self.energy = self.bus.attach(
                energy if isinstance(energy, EnergyLedger)
                else EnergyLedger())
            self.energy.obs = self
        self.journeys = None
        if journeys:
            # Imported lazily: the tracker pulls in the netstack's
            # protocol helpers, which plain metric/profile users of this
            # module do not need.
            from repro.obs.spans import JourneyTracker
            self.journeys = JourneyTracker(self)
        #: Optional :class:`~repro.obs.blackbox.FlightRecorder`.  Pass
        #: ``flight=True`` for one with default ring depths, or an
        #: existing recorder instance.
        self.flight = None
        if flight:
            from repro.obs.blackbox import FlightRecorder
            self.flight = flight if isinstance(flight, FlightRecorder) \
                else FlightRecorder()
        #: name -> :class:`~repro.core.SnapProcessor`, filled by
        #: :meth:`register_processor`; lets the flight recorder and
        #: crash-bundle builder find core state by node name.
        self.processors = {}
        #: Optional :class:`~repro.obs.telemetry.TelemetryExporter`,
        #: set by the exporter itself when it attaches; lets the
        #: blackbox embed the live stream tail in crash bundles.
        self.telemetry = None
        #: node -> its ``<node>.instructions`` counter.
        self._instruction_counters = {}

    def observe(self, target):
        """Attach this context to any instrumentable *target*.

        The target must implement ``attach_observability(obs)`` (the
        processor, node, and network simulator all do).  Returns the
        target for chaining.
        """
        target.attach_observability(self)
        return target

    def register_node(self, node):
        """Record a node's identity for journey reconstruction.

        Called by :meth:`SensorNode.attach_observability`; maps the
        node's radio to its id, name, and radio physics so the journey
        tracker can label spans and attribute per-hop energy.
        """
        if self.journeys is not None:
            self.journeys.register(node.node_id, node.name, node.radio.name,
                                   node.radio.config)
        if self.energy is not None:
            self.energy.register_node(node)

    def register_processor(self, processor):
        """Record a processor's identity (called by
        ``SnapProcessor.attach_observability``)."""
        self.processors[processor.name] = processor
        if self.flight is not None:
            self.flight.register_processor(processor)
        if self.energy is not None:
            self.energy.register_processor(processor)

    def program_loaded(self, node, text_words, data_words, imem_words,
                       dmem_words):
        """A linked program landed in a core's memories: surface IMEM and
        DMEM occupancy as gauges."""
        self.metrics.gauge(node + ".imem.occupancy_words").set(text_words)
        self.metrics.gauge(node + ".imem.occupancy_frac").set(
            text_words / imem_words if imem_words else 0.0)
        self.metrics.gauge(node + ".dmem.occupancy_words").set(data_words)
        self.metrics.gauge(node + ".dmem.occupancy_frac").set(
            data_words / dmem_words if dmem_words else 0.0)

    # -- processor hooks ------------------------------------------------------

    def instruction_retired(self, node, time, pc, instruction, handler,
                            energy, duration):
        # The hottest hook: with no sinks listening it only bumps the
        # node's counter and the flight ring, building no event.
        counter = self._instruction_counters.get(node)
        if counter is None:
            counter = self._instruction_counters[node] = \
                self.metrics.counter(node + ".instructions")
        counter.inc()
        if self.bus.sinks:
            self.bus.emit(InstructionRetired(
                time=time, node=node, pc=pc, mnemonic=instruction.text(),
                instr_class=instruction.spec.instr_class.value,
                handler=handler, energy=energy, duration=duration))
        if self.flight is not None:
            self.flight.record_instruction(node, time, pc, instruction,
                                           handler, energy)

    def handler_dispatch(self, node, time, event_name, handler, latency):
        self.metrics.counter(node + ".dispatches").inc()
        self.metrics.histogram(node + ".dispatch_latency").observe(latency)
        self.bus.emit(HandlerDispatch(
            time=time, node=node, event=event_name, handler=handler,
            latency=latency))
        if self.flight is not None:
            self.flight.record_event("dispatch", node, time, event_name)

    def sleep_enter(self, node, time):
        self.metrics.counter(node + ".sleeps").inc()
        self.bus.emit(SleepEnter(time=time, node=node))
        if self.flight is not None:
            self.flight.record_event("sleep", node, time)

    def wakeup(self, node, time, idle):
        self.metrics.counter(node + ".wakeups").inc()
        self.bus.emit(Wakeup(time=time, node=node, idle=idle))
        if self.flight is not None:
            self.flight.record_event("wakeup", node, time, idle)

    def energy_sample(self, node, time, energy, instructions):
        self.bus.emit(EnergySample(time=time, node=node, energy=energy,
                                   instructions=instructions))

    # -- event-queue hooks ----------------------------------------------------

    def event_enqueued(self, node, time, event_name, depth):
        self.metrics.counter(node + ".inserted").inc()
        self.metrics.gauge(node + ".depth").set(depth)
        self.bus.emit(EventEnqueued(time=time, node=node, event=event_name,
                                    depth=depth))
        if self.flight is not None:
            self.flight.record_event("eq.insert", node, time, event_name)

    def event_dropped(self, node, time, event_name):
        self.metrics.counter(node + ".dropped").inc()
        self.bus.emit(EventDropped(time=time, node=node, event=event_name))
        if self.flight is not None:
            self.flight.record_event("eq.drop", node, time, event_name)

    def queue_depth(self, node, depth):
        self.metrics.gauge(node + ".depth").set(depth)

    # -- message-coprocessor hooks --------------------------------------------

    def coproc_command(self, node, time, command, word):
        self.metrics.counter(node + ".commands").inc()
        self.bus.emit(CoprocessorCommand(time=time, node=node,
                                         command=command, word=word))
        if self.flight is not None:
            self.flight.record_event("mcp.command", node, time, command)

    # -- radio and channel hooks ----------------------------------------------

    def radio_tx(self, node, time, word, queue_depth):
        self.metrics.counter(node + ".tx_words").inc()
        self.metrics.gauge(node + ".tx_queue_depth").set(queue_depth)
        self.bus.emit(RadioTx(time=time, node=node, word=word))
        if self.flight is not None:
            self.flight.record_event("radio.tx", node, time, word)
        if self.journeys is not None:
            self.journeys.radio_tx(node, time, word)

    def radio_rx(self, node, time, word):
        self.metrics.counter(node + ".rx_words").inc()
        self.bus.emit(RadioRx(time=time, node=node, word=word))
        if self.flight is not None:
            self.flight.record_event("radio.rx", node, time, word)

    def radio_drop(self, node, time, word, reason):
        self.metrics.counter(node + ".dropped_words").inc()
        self.metrics.counter(node + ".dropped_words." + reason).inc()
        self.bus.emit(RadioDrop(time=time, node=node, word=word,
                                reason=reason))
        if self.flight is not None:
            self.flight.record_event("radio.drop", node, time, reason)

    def channel_word(self):
        self.metrics.counter("channel.words_carried").inc()

    def channel_collision(self):
        self.metrics.counter("channel.collisions").inc()

    def channel_noise(self):
        self.metrics.counter("channel.noise_corruptions").inc()

    def channel_delivery(self, sender, receiver, time, word, outcome):
        """The channel resolved one word at one receiver (*outcome* is
        ``ok``, ``flipped``, ``collision``, ``noise``, or
        ``not_listening``).  Feeds journey reconstruction only."""
        if self.journeys is not None:
            self.journeys.channel_delivery(sender, receiver, time, word,
                                           outcome)

    def channel_word_done(self, sender, time):
        """The channel finished fanning one of *sender*'s words out to
        every in-range receiver."""
        if self.journeys is not None:
            self.journeys.word_done(sender, time)

    # -- journey and timeline events ------------------------------------------

    def packet_span(self, span):
        """Emit one reconstructed journey span (see
        :mod:`repro.obs.spans`) onto the bus."""
        self.bus.emit(PacketSpan(
            time=span.time, node=span.node, journey=span.journey,
            span=span.span, parent=span.parent, op=span.op, pkt=span.pkt,
            src=span.src, dst=span.dst, seq=span.seq, words=span.words,
            duration=span.duration, energy=span.energy, reason=span.reason))

    def timeline_sample(self, node, time, energy, cpu_energy, radio_energy,
                        radio_mode, duty_tx, duty_rx, queue_depth,
                        instructions):
        self.metrics.gauge(node + ".timeline.energy_j").set(energy)
        self.bus.emit(TimelineSample(
            time=time, node=node, energy=energy, cpu_energy=cpu_energy,
            radio_energy=radio_energy, radio_mode=radio_mode,
            duty_tx=duty_tx, duty_rx=duty_rx, queue_depth=queue_depth,
            instructions=instructions))
