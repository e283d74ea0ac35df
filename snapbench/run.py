#!/usr/bin/env python3
"""snap-bench: host-time benchmark of the SNAP/LE simulator.

Run from the repository root::

    python3 snapbench/run.py                       # all workloads
    python3 snapbench/run.py --workload convergecast-32 --seed 7 \\
        --seconds 25 --trace 0

For ``--seconds`` it runs the workload's network, fast engine, in this
one process, in blocks of three runs: the workload's own configuration,
the other one (bare or armed with ``Observability(flight=True)``), and
its own again.  Every run's simulated outputs must equal those of a
reference engine run (``fast_path=False``, same workload and seed);
mismatches and exceptions are counted, not raised.  ``--trace 1`` adds
one traced run of the workload's own configuration and reports
per-layer metrics from its spans (see ``spans.py``); the end-to-end
metrics always come from untraced runs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones), each ``{"value", "unit"}``.
Results also land as ``BENCH_snapbench.<workload>[.traced].json`` (the
``snap-report --trajectory`` feed) in ``--out``, next to the traced
run's spans.  See README.md in this directory.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics: name -> unit.  ``failed_frac`` is reported by
#: name too, but the result line carries it as ``failed``/``attempted``.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_ips": "instructions/s",
    "peak_rss_mb": "MB",
    "obs_overhead_x": "x",
}

#: Size of the calibration loop and its nominal host time; see
#: :func:`calibrate`.
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_NOMINAL_S = 0.07

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "asm.assemble_calls": "count",
    "asm.assemble_s": "s",
    "asm.link_s": "s",
    "node.load_s": "s",
    "channel.words": "count",
    "channel.self_s": "s",
    "channel.in_range_calls": "count",
    "channel.in_range_per_word": "calls/word",
    "channel.busy_near_calls": "count",
    "channel.delivery_ok_ratio": "ratio",
    "radio.transmit_calls": "count",
    "radio.deliver_calls": "count",
    "radio.deliver_s": "s",
    "radio.self_s": "s",
    "kernel.events": "count",
    "kernel.schedule_calls": "count",
    "kernel.cancel_calls": "count",
    "kernel.self_s": "s",
    "core.instructions": "count",
    "core.bursts": "count",
    "core.burst_share": "share",
    "core.self_s": "s",
    "core.ns_per_instruction": "ns",
    "obs.hook_calls": "count",
    "obs.hook_s": "s",
    "obs.instruction_retired_calls": "count",
    "obs.flight_s": "s",
    "obs.ns_per_hook": "ns",
    "trace.run_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_x": "x",
    "trace.spans": "count",
}

#: Layers whose self times, with ``trace.residual_s``, add up to the
#: traced ``run_s``: metric name -> span layer.
RUN_LAYERS = {
    "kernel.self_s": "kernel",
    "core.self_s": "core",
    "channel.self_s": "channel",
    "radio.self_s": "radio",
    "obs.hook_s": "obs",
    "obs.flight_s": "obs.flight",
}


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "load_before": list(os.getloadavg())}


def calibrate():
    """Host seconds for a fixed pure-Python loop.

    Host speed on a shared VM swings by half for seconds at a time, and
    the simulator slows with it.  Each timed run is scaled by
    ``CALIBRATION_NOMINAL_S`` over the mean of the calibrations taken
    just before and just after it, so the reported times are host
    seconds at the speed where this loop takes ``CALIBRATION_NOMINAL_S``.
    """
    start = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_LOOPS):
        total += index * index % 7
    return time.perf_counter() - start


def peak_rss_mb():
    """The process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, sample, untraced_run_s):
    """Per-layer metrics of one traced run."""
    run = tracer.totals(since=sample.run_start)
    whole = tracer.totals()

    def calls(totals, name):
        return totals.get(name, (None, 0, 0.0))[1]

    def self_s(totals, name):
        return totals.get(name, (None, 0, 0.0))[2]

    def layer(name):
        return sum(entry[2] for entry in run.values() if entry[0] == name)

    counters = sample.counters
    words = calls(run, "channel.end_transmission")
    in_range = calls(run, "channel.in_range")
    delivered = calls(run, "radio.deliver")
    hooks = sum(entry[1] for entry in run.values() if entry[0] == "obs")
    metrics = {
        "asm.assemble_calls": calls(whole, "asm.assemble"),
        "asm.assemble_s": self_s(whole, "asm.assemble"),
        "asm.link_s": self_s(whole, "asm.link"),
        "node.load_s": self_s(whole, "node.load"),
        "channel.words": words,
        "channel.in_range_calls": in_range,
        "channel.in_range_per_word": _ratio(in_range, words),
        "channel.busy_near_calls": calls(run, "channel.busy_near"),
        "channel.delivery_ok_ratio": _ratio(
            delivered - counters["collisions"]
            - counters["noise_corruptions"], delivered),
        "radio.transmit_calls": calls(run, "radio.transmit"),
        "radio.deliver_calls": delivered,
        "radio.deliver_s": self_s(run, "radio.deliver"),
        "kernel.events": sum(entry[1] for name, entry in run.items()
                             if name.startswith("callback.")),
        "kernel.schedule_calls": calls(run, "kernel.schedule"),
        "kernel.cancel_calls": calls(run, "kernel.cancel"),
        "core.instructions": counters["instructions"],
        "core.bursts": counters["bursts"],
        "core.burst_share": _ratio(counters["burst_instructions"],
                                   counters["instructions"]),
        "obs.hook_calls": hooks,
        "obs.instruction_retired_calls": calls(
            run, "obs.instruction_retired"),
        "trace.run_s": sample.run_s,
        "trace.overhead_x": _ratio(sample.run_s, untraced_run_s),
        "trace.spans": len(tracer),
    }
    for metric, name in RUN_LAYERS.items():
        metrics[metric] = layer(name)
    metrics["core.ns_per_instruction"] = 1e9 * _ratio(
        metrics["core.self_s"], counters["instructions"])
    metrics["obs.ns_per_hook"] = 1e9 * _ratio(
        metrics["obs.hook_s"] + metrics["obs.flight_s"], hooks)
    metrics["trace.residual_s"] = sample.run_s - sum(
        metrics[metric] for metric in RUN_LAYERS)
    return metrics


def measure(workload, seed, seconds, trace=False, reference=None,
            spans_path=None):
    """Measure *workload* for about *seconds* host seconds.

    *reference* overrides the simulated outputs every run must equal
    (by default those of a reference-engine run).  Returns a dict with
    ``attempted``, ``failed``, ``end_to_end``, ``per_layer`` (when
    *trace*), sample counts and the host fingerprint.
    """
    # These import repro, which main() puts on the path only after
    # checking that the program source is there.
    import scenarios
    from spans import Tracer, installed

    host = host_fingerprint()
    attempted = failed = 0

    def check(sample):
        nonlocal failed
        if reference is None or sample.output != reference:
            failed += 1
            print("MISMATCH: %s seed %d differs from the reference engine"
                  % (workload.name, seed), file=sys.stderr)

    if reference is None:
        try:
            reference = workload.run(seed, fast_path=False).output
        except Exception:
            traceback.print_exc()
    runs = {False: [], True: []}
    overheads = []
    # Blocks of own configuration, other configuration, own
    # configuration: twice the samples where the headline metrics come
    # from, and each armed/bare ratio taken from neighbouring runs (so
    # it needs no calibration).
    block = (workload.armed, not workload.armed, workload.armed)
    calibration = calibrate()
    deadline = time.perf_counter() + seconds
    while True:
        times = {False: [], True: []}
        for armed in block:
            obs = scenarios.armed_context() if armed else None
            gc.collect()
            attempted += 1
            try:
                sample = workload.run(seed, obs=obs)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                before, calibration = calibration, calibrate()
            check(sample)
            scale = CALIBRATION_NOMINAL_S / statistics.fmean(
                (before, calibration))
            runs[armed].append((sample, scale))
            times[armed].append(sample.run_s)
        if times[False] and times[True]:
            overheads.append(statistics.fmean(times[True])
                             / statistics.fmean(times[False]))
        if time.perf_counter() >= deadline:
            break

    primary = runs[workload.armed]
    result = {"attempted": attempted, "failed": failed, "seed": seed,
              "horizon_s": workload.horizon_s, "samples": len(primary),
              "blocks": len(overheads), "host": host}
    if not primary or not overheads:
        result["host"]["load_after"] = list(os.getloadavg())
        return result
    run_s = statistics.median(sample.run_s for sample, _ in primary)
    result["end_to_end"] = {
        "setup_s": statistics.median(
            sample.setup_s * scale for sample, scale in primary),
        "run_s": statistics.median(
            sample.run_s * scale for sample, scale in primary),
        "sim_ips": statistics.median(
            sample.counters["instructions"] / (sample.run_s * scale)
            for sample, scale in primary),
        "peak_rss_mb": peak_rss_mb(),
        "obs_overhead_x": statistics.median(overheads),
    }
    result["raw"] = {
        "setup_s": statistics.median(sample.setup_s for sample, _ in primary),
        "run_s": run_s,
        "calibration_s": CALIBRATION_NOMINAL_S / statistics.median(
            scale for _, scale in primary),
    }
    if trace:
        tracer = Tracer()
        obs = scenarios.armed_context() if workload.armed else None
        gc.collect()
        attempted += 1
        try:
            with installed(tracer):
                sample = workload.run(seed, obs=obs)
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            check(sample)
            result["per_layer"] = layer_metrics(tracer, sample, run_s)
            if spans_path is not None:
                tracer.save(spans_path)
        result["attempted"], result["failed"] = attempted, failed
    result["host"]["load_after"] = list(os.getloadavg())
    return result


def report(workload, result, trace):
    """Print *result* by name with units; return the result-line dict."""
    host = result["host"]
    print("snap-bench %s  seed %d  horizon %g s  %d runs (%d blocks)"
          % (workload.name, result["seed"], result["horizon_s"],
             result["attempted"], result["blocks"]))
    print("  host: python %s, nproc %s, cpu %s, load %s -> %s"
          % (host["python"], host["nproc"], host["cpu"],
             "/".join("%.2f" % x for x in host["load_before"]),
             "/".join("%.2f" % x for x in host["load_after"])))
    if "raw" in result:
        raw = result["raw"]
        print("  host speed: calibration loop %.4f s (nominal %g s); "
              "unscaled setup_s %.6g s, run_s %.6g s"
              % (raw["calibration_s"], CALIBRATION_NOMINAL_S,
                 raw["setup_s"], raw["run_s"]))
    shown = dict(result.get("end_to_end", {}))
    shown.update(result.get("per_layer", {}))
    units = dict(END_TO_END, **PER_LAYER)
    for name, value in shown.items():
        note = ""
        if name in ("setup_s", "run_s"):
            note = "  (median of %d)" % result["samples"]
        elif name == "obs_overhead_x":
            note = "  (median of %d blocks)" % result["blocks"]
        print("  %-32s %.6g %s%s" % (name, value, units[name], note))
    print("  %-32s %.6g share  (%d of %d runs)"
          % ("failed_frac", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]))
    wanted = PER_LAYER if trace else END_TO_END
    values = result.get("per_layer" if trace else "end_to_end", {})
    return {
        "correct": result["failed"] == 0 and set(values) == set(wanted),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items() if name in values},
    }


def dump(workload, result, trace, out, wall_time_s):
    from repro.bench.reporting import dump_results

    flat = {key: value for key, value in result.items()
            if key not in ("end_to_end", "per_layer", "raw")}
    flat.update(("raw_" + key, value)
                for key, value in result.get("raw", {}).items())
    flat.update(result.get("end_to_end", {}))
    flat.update(result.get("per_layer", {}))
    flat["failed_frac"] = result["failed"] / result["attempted"]
    name = "snapbench.%s%s" % (workload.name, ".traced" if trace else "")
    dump_results(name, flat, directory=out, wall_time_s=wall_time_s)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the SNAP/LE simulator.")
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds to measure each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run, report per-layer metrics")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for BENCH_*.json dumps and spans")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("snap-bench: no program source at %s; run from a full "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from scenarios import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s, all)"
                     % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    result = measure(
        workload, args.seed, args.seconds, trace=bool(args.trace),
        spans_path=os.path.join(args.out, "spans-%s.npz" % workload.name))
    line = report(workload, result, bool(args.trace))
    dump(workload, result, bool(args.trace), args.out,
         time.perf_counter() - started)
    print(json.dumps(line))
    wanted = PER_LAYER if args.trace else END_TO_END
    return 0 if len(line["metrics"]) == len(wanted) else 1


def run_all(names, args):
    """Run each workload in a fresh child process, one after another (so
    each gets its own memory high-water mark), and merge their result
    lines; metric names gain a ``<workload>.`` prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            line = json.loads(lines[-1])
        except (IndexError, ValueError):
            line = {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}
        status = status or child.returncode
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        merged["metrics"].update(
            ("%s.%s" % (name, metric), value)
            for metric, value in line["metrics"].items())
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
