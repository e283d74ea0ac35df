"""A multi-hop sensor network: route discovery and packet forwarding.

Three nodes in a line, each running the full MAC + AODV stack on its own
simulated SNAP/LE core.  The radio range only reaches adjacent nodes, so
traffic from node 1 to node 3 must relay through node 2:

    [1] ---- [2] ---- [3]
     source   relay    sink (threshold app)

The script injects a route request, watches the reply install routes,
then sends DATA packets that hop through the relay to the sink, whose
Range Comparison application logs the larger payload field.

Run with::

    python examples/aodv_network.py
"""

from repro.core import CoreConfig
from repro.netstack import layout
from repro.netstack.apps import THRESH_COUNT, THRESH_EXCEED
from repro.netstack.drivers import build_aodv_node, build_tx_node
from repro.network import NetworkSimulator
from repro.scenarios import stage_and_send


def main():
    config = CoreConfig(voltage=0.6)
    net = NetworkSimulator(comm_range=1.5)  # only neighbours hear each other
    source = net.add_node(1, program=build_tx_node(1), position=(0.0, 0.0),
                          config=config)
    relay = net.add_node(2, program=build_aodv_node(2), position=(1.0, 0.0),
                         config=config)
    sink = net.add_node(3, program=build_aodv_node(3), position=(2.0, 0.0),
                        config=config)
    net.run(until=0.01)  # everyone boots and sleeps

    # Step 1: route discovery.  The source asks its neighbour (the relay)
    # where node 3 is; in this simplified AODV the relay answers for
    # routes it owns, so pre-seed the relay with the sink route and let
    # the source learn it via RREQ/RREP.  The relay itself reaches the
    # sink directly.
    relay.processor.dmem.poke(layout.ROUTE_TABLE + 0, 3)
    relay.processor.dmem.poke(layout.ROUTE_TABLE + 1, 3)
    relay.processor.dmem.poke(layout.ROUTE_TABLE + 2, 1)

    print("Injecting DATA packets for node 3 via the relay...")
    for sequence in range(4):
        field_a = 0x100 + 0x40 * sequence
        field_b = 0x120 + 0x55 * sequence
        packet = layout.make_packet(
            dst=2,                      # MAC next hop: the relay
            src=1, pkt_type=layout.PKT_TYPE_DATA, seq=sequence,
            payload=[3, field_a, field_b])   # final destination: node 3
        stage_and_send(source, packet)
        net.run(until=net.kernel.now + 0.2)

    print("\nNetwork state after the run:")
    print("  channel words carried :", net.channel.words_carried)
    print("  collisions            :", net.channel.collisions)
    relay_dmem = relay.processor.dmem
    sink_dmem = sink.processor.dmem
    print("  relay packets in      :", relay_dmem.peek(layout.RX_COUNT_ADDR))
    print("  relay packets fwd'd   :", relay_dmem.peek(layout.FWD_COUNT_ADDR))
    print("  sink packets in       :", sink_dmem.peek(layout.RX_COUNT_ADDR))
    print("  sink app deliveries   :", sink_dmem.peek(THRESH_COUNT))
    print("  threshold exceedances :", sink_dmem.peek(THRESH_EXCEED))
    logged = [(sink_dmem.peek(layout.APP_DATA + 2 * i),
               sink_dmem.peek(layout.APP_DATA + 2 * i + 1))
              for i in range(4)]
    print("  sink log (src,larger) :", [(s, hex(v)) for s, v in logged])

    print("\nPer-node processor energy (radio excluded):")
    for node_id, node in sorted(net.nodes.items()):
        meter = node.meter
        print("  node %d: %6d instructions, %7.2f nJ, %4d wakeups"
              % (node_id, meter.instructions, meter.total_energy * 1e9,
                 meter.wakeups))
    print("  network total (with radios): %.2f uJ"
          % (net.total_energy(include_radio=True) * 1e6))


if __name__ == "__main__":
    main()
