"""``snap-net-trace``: run a multi-hop network scenario under full
observability and print reconstructed packet-journey trees, a per-hop
table, and the network's energy drain curve.

The scenario is a line of nodes one radio hop apart::

    [1] ---- [2] ---- ... ---- [N]
    source    relay             sink

Node 1 runs the TX driver and injects DATA packets addressed (at the
application layer) to the sink; the intermediate AODV nodes relay them
hop by hop.  The journey tracker reconstructs every packet's life --
send, air, per-receiver receive/overhear/drop-with-reason, forward,
deliver -- from the word-level radio and channel events, and the
timeline sampler snapshots each node's cumulative energy, duty cycle,
and queue depth on a fixed period.

Usage::

    python -m repro.tools.snap_net_trace --nodes 5 --packets 3
    python -m repro.tools.snap_net_trace --bit-error-rate 0.02 \\
        --chrome net.json --drain-csv drain.csv
    python -m repro.tools.snap_net_trace --nodes 2 --no-route
"""

import argparse
import json
import sys

from repro.obs import JsonlSink, MemorySink, Observability, write_chrome_trace
from repro.scenarios import build_chain, send


def run_chain_scenario(nodes=5, packets=3, bit_error_rate=0.0,
                       corruption="drop", seed=0, comm_range=1.5,
                       voltage=0.6, window=0.2, sample_every=0.02,
                       no_route=False, buffer_limit=1_000_000,
                       jsonl_path=None, observe=True):
    """Build and run the chain scenario; returns ``(net, obs, extras)``.

    The chain is :func:`repro.scenarios.build_chain`'s; one DATA packet
    is injected per *window* after the boot.  *extras* is a dict with
    the memory sink, the timeline sampler (started after the boot), and
    the (closed) JSONL sink if one was requested.  With
    ``observe=False`` the scenario runs completely uninstrumented
    (``obs`` comes back ``None``) -- the bit-identity tests compare
    such a run against an instrumented one.
    """
    if nodes < 2:
        raise ValueError("the chain needs at least 2 nodes")
    obs = memory = jsonl = None
    if observe:
        obs = Observability(journeys=True)
        memory = obs.bus.attach(MemorySink(limit=buffer_limit))
        if jsonl_path:
            jsonl = obs.bus.attach(JsonlSink(jsonl_path))

    net, app_dest = build_chain(
        nodes=nodes, bit_error_rate=bit_error_rate, corruption=corruption,
        seed=seed, comm_range=comm_range, voltage=voltage,
        no_route=no_route, obs=obs)
    sampler = None
    if sample_every:
        sampler = net.timeline_sampler(sample_every)

    for sequence in range(packets):
        send(net, sequence, app_dest)
        net.run(until=net.kernel.now + window)

    if obs is not None:
        obs.journeys.flush()
    if sampler is not None:
        sampler.sample()  # final aligned snapshot at end of run
    if jsonl is not None:
        jsonl.close()
    return net, obs, {"memory": memory, "sampler": sampler, "jsonl": jsonl}


def _print_hop_table(rows):
    header = ("journey", "kind", "hop", "from", "to", "outcome",
              "latency_ms", "words", "energy_nJ")
    table = [header]
    for row in rows:
        table.append((str(row["journey"]), row["kind"], str(row["hop"]),
                      row["from"], row["to"], row["outcome"],
                      "%.3f" % (row["latency_s"] * 1e3), str(row["words"]),
                      "%.1f" % (row["energy_j"] * 1e9)))
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        print("  " + "  ".join(cell.ljust(width)
                               for cell, width in zip(line, widths)).rstrip())


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="snap-net-trace",
        description="Trace packet journeys and the energy timeline of a "
                    "multi-hop AODV chain scenario.")
    parser.add_argument("--nodes", type=int, default=5,
                        help="chain length incl. source and sink (default 5)")
    parser.add_argument("--packets", type=int, default=3,
                        help="DATA packets to inject (default 3)")
    parser.add_argument("--bit-error-rate", type=float, default=0.0,
                        help="per-word channel corruption probability")
    parser.add_argument("--corruption", choices=("drop", "flip"),
                        default="drop", help="channel noise mode")
    parser.add_argument("--seed", type=int, default=0,
                        help="channel noise RNG seed (default 0)")
    parser.add_argument("--range", type=float, default=1.5, dest="comm_range",
                        help="radio range; nodes are 1.0 apart (default 1.5)")
    parser.add_argument("--voltage", type=float, default=0.6,
                        help="core supply voltage (default 0.6)")
    parser.add_argument("--window", type=float, default=0.2,
                        help="simulated seconds per injected packet")
    parser.add_argument("--sample-every", type=float, default=0.02,
                        metavar="SECONDS",
                        help="energy-timeline sampling period (0 disables)")
    parser.add_argument("--no-route", action="store_true",
                        help="address packets to a nonexistent node so the "
                             "first relay's route lookup fails")
    parser.add_argument("--chrome", metavar="PATH",
                        help="write a chrome://tracing timeline (with "
                             "journey flow events) to PATH")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="stream the typed event trace to PATH (JSONL)")
    parser.add_argument("--drain-csv", metavar="PATH",
                        help="write the per-node energy drain time-series "
                             "to PATH as CSV")
    parser.add_argument("--json", action="store_true",
                        help="print journey summaries and hop rows as JSON "
                             "instead of text")
    parser.add_argument("--buffer-limit", type=int, default=1_000_000,
                        help="in-memory trace ring size (default 1000000)")
    args = parser.parse_args(argv)

    try:
        net, obs, extras = run_chain_scenario(
            nodes=args.nodes, packets=args.packets,
            bit_error_rate=args.bit_error_rate, corruption=args.corruption,
            seed=args.seed, comm_range=args.comm_range, voltage=args.voltage,
            window=args.window, sample_every=args.sample_every,
            no_route=args.no_route, buffer_limit=args.buffer_limit,
            jsonl_path=args.jsonl)
    except ValueError as error:
        print("snap-net-trace: %s" % error, file=sys.stderr)
        return 1

    tracker = obs.journeys
    summaries = tracker.summaries()
    delivered = [s for s in summaries if s["delivered"]]

    if args.json:
        print(json.dumps({
            "time_s": net.kernel.now,
            "journeys": summaries,
            "hops": tracker.hop_rows(),
        }, indent=2))
    else:
        print("Packet journeys")
        print("===============")
        print(tracker.report() or "(no journeys reconstructed)")
        print()
        print("Per-hop table")
        print("=============")
        _print_hop_table(tracker.hop_rows())
        print()
        print("Summary")
        print("=======")
        print("  sim time          : %.3f s" % net.kernel.now)
        print("  journeys          : %d (%d delivered)"
              % (len(summaries), len(delivered)))
        latency = obs.metrics.histogram("net.journey_latency_s")
        if latency.count:
            print("  journey latency   : p50 %.3f ms  p90 %.3f ms  "
                  "max %.3f ms"
                  % (latency.percentile(50) * 1e3,
                     latency.percentile(90) * 1e3, latency.max * 1e3))
        hop = obs.metrics.histogram("net.hop_latency_s")
        if hop.count:
            print("  hop latency       : p50 %.3f ms over %d hops"
                  % (hop.percentile(50) * 1e3, hop.count))
        if delivered:
            energy = sum(s["energy_j"] for s in delivered) / len(delivered)
            print("  radio energy      : %.1f nJ per delivered journey"
                  % (energy * 1e9))
        print("  network energy    : %.2f uJ (with radios)"
              % (net.total_energy(include_radio=True) * 1e6))

    sampler = extras["sampler"]
    if args.drain_csv:
        if sampler is None:
            print("snap-net-trace: --drain-csv needs --sample-every > 0",
                  file=sys.stderr)
            return 1
        sampler.to_csv(args.drain_csv)
        print("drain csv    : %s (%d rows)" % (args.drain_csv,
                                               len(sampler.rows)))
    if args.jsonl:
        print("jsonl trace  : %s (%d events)" % (args.jsonl,
                                                 extras["jsonl"].count))
    if args.chrome:
        write_chrome_trace(extras["memory"].events, args.chrome)
        print("chrome trace : %s (%d events; open in chrome://tracing)"
              % (args.chrome, len(extras["memory"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
