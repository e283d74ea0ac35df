"""Simulator-throughput benchmark: fast path vs reference interpreter.

Measures instructions per host-second on three scenarios -- a
straight-line ALU loop (peak batching), the Figure 5 blink application
(timer/sleep/wake cycles), and the convergecast network experiment
(multi-node, radio traffic) -- running each on both execution engines:
the batched fast path (``CoreConfig(fast_path=True)``, the default) and
the per-event reference interpreter that keeps the pre-burst cost
profile.  Every scenario asserts that the two engines produce
bit-identical meters before any throughput number is reported.

The committed baseline (``tests/goldens/sim_speed_baseline.json``)
stores the *speedup* -- fast-path throughput over reference throughput
-- per scenario rather than absolute instructions/second, which makes
the gate machine-independent to first order.  ``--check`` fails when a
speedup regresses below ``baseline * (1 - tolerance)``, the same
committed-baseline-diff discipline the ``snap-report`` fidelity gate
uses.

CLI::

    python -m repro.bench.simspeed                   # print the table
    python -m repro.bench.simspeed --check \\
        --baseline tests/goldens/sim_speed_baseline.json
    python -m repro.bench.simspeed --write-baseline PATH
"""

import argparse
import json
import sys
import time

from repro.asm import build
from repro.bench.reporting import dump_results, format_table
from repro.core import CoreConfig, SnapProcessor
from repro.netstack import build_blink_app
from repro.network.experiments import convergecast
from repro.node import SensorNode
from repro.scenarios import STRAIGHTLINE
from repro.sim.checkpoint import meter_digest

#: Speedup may regress by at most this fraction against the baseline.
DEFAULT_TOLERANCE = 0.30


def _scenario_straightline(fast_path, quick=False):
    """A counted ALU loop with no events: peak instruction batching."""
    outer = 8 if quick else 24
    program = build(STRAIGHTLINE % {"outer": outer})
    processor = SnapProcessor(config=CoreConfig(voltage=0.6,
                                                fast_path=fast_path))
    processor.load(program)
    started = time.perf_counter()
    meter = processor.run()
    wall = time.perf_counter() - started
    return {"instructions": meter.instructions, "wall_s": wall,
            "digest": meter_digest(processor)}


def _scenario_blink(fast_path, quick=False):
    """The Figure 5 periodic blink app: timer, sleep/wake, LED writes."""
    until = 0.25 if quick else 1.0
    node = SensorNode(config=CoreConfig(voltage=0.6, fast_path=fast_path))
    node.load(build_blink_app(period_ticks=1000))
    started = time.perf_counter()
    meter = node.run(until=until)
    wall = time.perf_counter() - started
    return {"instructions": meter.instructions, "wall_s": wall,
            "digest": meter_digest(node.processor)}


def _scenario_convergecast(fast_path, quick=False):
    """The multi-node convergecast experiment: cores + radios + channel.

    Wall time covers the whole experiment (setup, channel and radio
    events included), so this speedup reflects what network studies
    actually gain, not just core-loop throughput.
    """
    duration = 1.0 if quick else 2.0
    started = time.perf_counter()
    result = convergecast(chain_length=4, period_s=0.1, duration_s=duration,
                          fast_path=fast_path)
    wall = time.perf_counter() - started
    instructions = sum(node.instructions for node in result.nodes.values())
    digest = {
        "sink_deliveries": result.sink_deliveries,
        "channel_collisions": result.channel_collisions,
        "nodes": {node_id: (node.instructions, node.energy_j,
                            node.packets_sent, node.packets_forwarded)
                  for node_id, node in sorted(result.nodes.items())},
    }
    return {"instructions": instructions, "wall_s": wall, "digest": digest}


#: The timed workloads, each run on both engines.
WORKLOADS = {
    "straightline": _scenario_straightline,
    "blink": _scenario_blink,
    "convergecast": _scenario_convergecast,
}


def _best_of(scenario, fast_path, repeats, quick):
    best = None
    for _ in range(repeats):
        result = scenario(fast_path, quick=quick)
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    return best


def run_all(repeats=2, quick=False):
    """Run every scenario on both engines; returns the results dict.

    Raises AssertionError if the engines' meters are not bit-identical
    -- a throughput number for a diverging simulation is meaningless.
    """
    results = {}
    for name, scenario in WORKLOADS.items():
        fast = _best_of(scenario, True, repeats, quick)
        reference = _best_of(scenario, False, repeats, quick)
        if fast["digest"] != reference["digest"]:
            raise AssertionError(
                "fast path and reference interpreter diverged on %r:\n"
                "fast: %r\nreference: %r"
                % (name, fast["digest"], reference["digest"]))
        results[name] = {
            "instructions": fast["instructions"],
            "fast_wall_s": fast["wall_s"],
            "ref_wall_s": reference["wall_s"],
            "fast_ips": fast["instructions"] / fast["wall_s"],
            "ref_ips": reference["instructions"] / reference["wall_s"],
            "speedup": ((fast["instructions"] / fast["wall_s"])
                        / (reference["instructions"] / reference["wall_s"])),
        }
    return results


def results_table(results):
    rows = [[name,
             "%d" % entry["instructions"],
             "%.0f" % entry["ref_ips"],
             "%.0f" % entry["fast_ips"],
             "%.2fx" % entry["speedup"]]
            for name, entry in results.items()]
    return format_table(
        ["scenario", "instructions", "ref ins/s", "fast ins/s", "speedup"],
        rows, title="Simulator throughput: fast path vs reference")


def compare_to_baseline(results, baseline):
    """Return a list of failure strings (empty = the gate passes)."""
    tolerance = baseline.get("tolerance", DEFAULT_TOLERANCE)
    failures = []
    for name, entry in sorted(baseline.get("scenarios", {}).items()):
        current = results.get(name)
        if current is None:
            failures.append("%s: scenario missing from current results" % name)
            continue
        floor = entry["speedup"] * (1.0 - tolerance)
        if current["speedup"] < floor:
            failures.append(
                "%s: speedup %.2fx fell below %.2fx "
                "(baseline %.2fx minus %d%% tolerance)"
                % (name, current["speedup"], floor, entry["speedup"],
                   round(tolerance * 100)))
    return failures


def baseline_payload(results, tolerance=DEFAULT_TOLERANCE):
    return {
        "tolerance": tolerance,
        "scenarios": {name: {"speedup": round(entry["speedup"], 2)}
                      for name, entry in sorted(results.items())},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.simspeed",
        description="Measure simulator throughput (fast path vs the "
                    "reference interpreter) and optionally gate against "
                    "a committed speedup baseline.")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of-N per engine (default: 2)")
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulated durations (smoke runs)")
    parser.add_argument("--baseline", metavar="PATH",
                        help="baseline JSON to gate against")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when a speedup regresses past "
                             "the baseline tolerance")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the measured speedups as a new baseline")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump the raw results to PATH")
    parser.add_argument("--results-dir", metavar="DIR",
                        help="write BENCH_SIM_SPEED.json under DIR "
                             "(default: $BENCH_RESULTS_DIR)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    results = run_all(repeats=args.repeats, quick=args.quick)
    wall = time.perf_counter() - started
    print(results_table(results))

    dumped = dump_results("SIM_SPEED", results, directory=args.results_dir,
                          wall_time_s=wall)
    if dumped:
        print("results dumped : %s" % dumped)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print("raw results    : %s" % args.json)
    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            json.dump(baseline_payload(results), handle, indent=2)
            handle.write("\n")
        print("baseline saved : %s" % args.write_baseline)

    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        failures = compare_to_baseline(results, baseline)
        for failure in failures:
            print("REGRESSION: %s" % failure)
        if failures and args.check:
            return 1
        if not failures:
            print("baseline check : ok (tolerance %d%%)"
                  % round(baseline.get("tolerance", DEFAULT_TOLERANCE) * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
