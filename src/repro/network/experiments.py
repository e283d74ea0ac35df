"""Network-level experiments.

The paper's introduction frames the goal as maximizing "the lifetime of
a network", which "is a function of the operations (computation,
communication, sensing) performed by its nodes and of the amount of
energy stored in its nodes' batteries".  These experiments run a
convergecast data-gathering workload (every node samples periodically
and reports to a sink over multi-hop routes) and derive per-node power
and battery-lifetime estimates -- for SNAP/LE nodes, and for a
hypothetical mote whose processor follows the paper's Atmel figures.
"""

from dataclasses import dataclass
from typing import Dict

from repro.baseline.energy import AtmelEnergyModel
from repro.core import CoreConfig
from repro.netstack import layout
from repro.netstack.apps import THRESH_COUNT
from repro.netstack.drivers import build_aodv_node
from repro.netstack.sampling import (
    SAMP_NEXT_HOP,
    SAMP_SENT,
    SAMP_SINK,
    build_sampling_node,
)
from repro.network.simulator import NetworkSimulator
from repro.sensors import TemperatureSensor


@dataclass
class NodeReport:
    node_id: int
    instructions: int
    packets_sent: int
    packets_forwarded: int
    energy_j: float
    average_power_w: float


@dataclass
class ConvergecastResult:
    duration_s: float
    sink_deliveries: int
    nodes: Dict[int, NodeReport]
    channel_collisions: int
    #: Full :meth:`NetworkSimulator.snapshot` taken at the end of the
    #: run -- per-node and channel counters for bench JSON dumps.
    metrics: dict = None
    #: Energy drain time-series (list of timeline rows, one per
    #: sample tick and node) when the run was sampled; see
    #: :data:`repro.obs.timeline.TIMELINE_FIELDS`.
    drain: list = None

    @property
    def hottest_node(self):
        """The node burning the most power (the one that dies first)."""
        return max(self.nodes.values(), key=lambda n: n.average_power_w)

    def lifetime_s(self, battery_j, extra_power_w=0.0):
        """Network lifetime (first node death) on a given battery.

        *extra_power_w* adds a constant floor (leakage, radio listening)
        to every node.
        """
        worst = self.hottest_node.average_power_w + extra_power_w
        if worst <= 0:
            return float("inf")
        return battery_j / worst


def build_convergecast(chain_length=4, period_s=0.1, voltage=0.6, seed=0,
                       fast_path=True, obs=None):
    """Build a convergecast chain and play its prologue; returns the net.

    Node 1 is the AODV sink; nodes 2..*chain_length* sit on a line with
    radio range one hop, each sampling its temperature sensor every
    *period_s* and reporting toward the sink over static routes.  The
    returned network has booted (1 ms) and every sampler timer is armed,
    so it runs host-intervention-free from here.  *obs* is attached via
    ``obs.observe(net)`` before the boot run.
    """
    config = CoreConfig(voltage=voltage, fast_path=fast_path)
    net = NetworkSimulator(comm_range=1.5)
    period_ticks = int(period_s * 1e6)

    net.add_node(1, program=build_aodv_node(1), position=(0.0, 0.0),
                 config=config)
    reporters = {}
    for index in range(1, chain_length):
        node_id = index + 1
        node = net.add_node(
            node_id, program=build_sampling_node(node_id, period_ticks),
            position=(float(index), 0.0), config=config)
        node.attach_sensor(TemperatureSensor(seed=seed + node_id),
                           sensor_id=1)
        reporters[node_id] = node
    if obs is not None:
        obs.observe(net)
    net.run(until=0.001)

    # Static convergecast routes: next hop is the line neighbour toward
    # the sink; every relay also knows the route to the sink.
    for node_id, node in reporters.items():
        node.processor.dmem.poke(SAMP_NEXT_HOP, node_id - 1)
        node.processor.dmem.poke(SAMP_SINK, 1)
        node.processor.dmem.poke(layout.ROUTE_TABLE + 0, 1)
        node.processor.dmem.poke(layout.ROUTE_TABLE + 1, node_id - 1)
        node.processor.dmem.poke(layout.ROUTE_TABLE + 2, node_id - 1)

    # De-synchronize the periodic samplers so the shared channel does
    # not see systematic collisions: spread the first firing of each
    # node's sample timer evenly across one period (a packet plus its
    # relayed copies takes ~8ms of air time at 19.2kbps, so neighbours
    # must not sample in lockstep).
    count = max(1, len(reporters))
    for offset, node in enumerate(reporters.values()):
        stagger = int(period_ticks * (1 + offset) / (count + 1))
        node.processor.timer.schedlo(0, period_ticks + stagger)
    return net


def convergecast(chain_length=4, period_s=0.1, duration_s=10.0,
                 voltage=0.6, seed=0, sample_every=None, fast_path=True,
                 obs=None, telemetry=None, telemetry_interval=None):
    """Run a convergecast chain: node N .. node 2 report to node 1.

    The network is :func:`build_convergecast`'s; this runs it to
    *duration_s* and reports per-node power.

    With *sample_every* set, an energy-timeline sampler snapshots every
    node on that period and the result carries the drain time-series in
    its ``drain`` field (the sampler only reads state, so the sampled
    run is bit-identical to an unsampled one).  *fast_path* selects the
    cores' execution engine (results are bit-identical either way; the
    sim-speed benchmark runs both).  *obs* optionally attaches an
    :class:`~repro.obs.Observability` context (or a
    :class:`~repro.obs.Blackbox`, via its ``observe``/``watchdog``)
    to the whole network before the run -- also bit-identical.

    *telemetry* optionally streams the run: pass a
    :class:`~repro.obs.transports.TelemetryTransport` (or an NDJSON
    path) and a :class:`~repro.obs.telemetry.TelemetryExporter` is
    armed over the whole network for the duration, flushing every
    *telemetry_interval* simulated seconds.  Telemetry rides the same
    read-only observability paths, so a streamed run stays bit-identical
    too (``tests/test_telemetry.py`` pins this on the meter digests).
    """
    net = build_convergecast(chain_length=chain_length, period_s=period_s,
                             voltage=voltage, seed=seed,
                             fast_path=fast_path, obs=obs)

    sampler = None
    if sample_every:
        sampler = net.timeline_sampler(sample_every)

    exporter = None
    if telemetry is not None:
        kwargs = {} if telemetry_interval is None else \
            {"interval": telemetry_interval}
        exporter = net.telemetry_exporter(telemetry, horizon=duration_s,
                                          **kwargs)

    net.run(until=duration_s)
    if sampler is not None:
        sampler.sample()  # final aligned row at the end of the run
    if exporter is not None:
        exporter.close()

    reports = {}
    for node_id, node in sorted(net.nodes.items()):
        meter = node.meter
        dmem = node.processor.dmem
        reports[node_id] = NodeReport(
            node_id=node_id,
            instructions=meter.instructions,
            packets_sent=dmem.peek(SAMP_SENT) if node_id != 1 else 0,
            packets_forwarded=dmem.peek(layout.FWD_COUNT_ADDR),
            energy_j=meter.total_energy,
            average_power_w=meter.total_energy / duration_s)
    return ConvergecastResult(
        duration_s=duration_s,
        sink_deliveries=net.nodes[1].processor.dmem.peek(THRESH_COUNT),
        nodes=reports,
        channel_collisions=net.channel.collisions,
        metrics=net.snapshot(),
        drain=sampler.rows if sampler is not None else None)


@dataclass
class LifetimeComparison:
    snap_power_w: float
    mote_power_w: float
    snap_lifetime_s: float
    mote_lifetime_s: float

    @property
    def ratio(self):
        return self.snap_lifetime_s / self.mote_lifetime_s


def lifetime_comparison(result, battery_j=2000.0, snap_leakage_w=0.0,
                        mote_sleep_w=None, mote_cycles_per_instruction=1.5):
    """Estimate network lifetime for SNAP/LE nodes versus mote-class
    nodes running the same workload.

    The mote's processor energy is modeled from the paper's published
    figures: the same dynamic instruction stream at the Atmel's energy
    per instruction, plus its idle-sleep floor (TinyOS idles the AVR in
    a light sleep where the timer keeps running).  *battery_j* defaults
    to roughly a coin cell (2000 J ~ 220 mAh at 2.5 V).
    """
    atmel = AtmelEnergyModel()
    if mote_sleep_w is None:
        mote_sleep_w = atmel.deep_sleep_power
    hottest = result.hottest_node
    snap_power = hottest.average_power_w + snap_leakage_w
    mote_active = (hottest.instructions * mote_cycles_per_instruction
                   * atmel.energy_per_cycle) / result.duration_s
    mote_power = mote_active + mote_sleep_w
    return LifetimeComparison(
        snap_power_w=snap_power,
        mote_power_w=mote_power,
        snap_lifetime_s=battery_j / snap_power if snap_power else float("inf"),
        mote_lifetime_s=battery_j / mote_power)
