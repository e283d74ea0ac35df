#!/usr/bin/env python3
"""cProfile layer shares of each benchmark workload.

Run from the repository root::

    python3 snapbench/profile_shares.py [--seed N]

Profiles one run of each workload in its own configuration under
:mod:`cProfile` and prints, per workload, the share of profiled time
(``tottime``) spent in each layer's modules -- once for the run phase
(inside ``Kernel.run``) and once for the rest, which is setup.
cProfile charges a cost to every Python call, which inflates layers made
of many small calls (the channel's ``in_range``), so use these shares to
find where time goes and the benchmark's traced run to measure it.
"""

import argparse
import cProfile
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: Layer of a source file, by path fragment; first match wins.
LAYER_FILES = (
    ("channel", "repro/radio/channel.py"),
    ("radio", "repro/radio/"),
    ("kernel", "repro/core/kernel.py"),
    ("core", "repro/core/"),
    ("core", "repro/coprocessors/"),
    ("core", "repro/energy/"),
    ("isa", "repro/isa/"),
    ("core", "repro/sensors/"),
    ("asm", "repro/asm/"),
    ("obs", "repro/obs/"),
    ("harness", "repro/"),
)


def layer_of(filename):
    path = filename.replace(os.sep, "/")
    for layer, fragment in LAYER_FILES:
        if fragment in path:
            return layer
    return "python/builtins"


def layer_shares(profile):
    """``{layer: share of profiled time}`` and the profiled seconds."""
    totals = {}
    for (filename, _, _), (_, _, tottime, _, _) in \
            pstats.Stats(profile).stats.items():
        layer = layer_of(filename)
        totals[layer] = totals.get(layer, 0.0) + tottime
    whole = sum(totals.values())
    return {layer: value / whole for layer, value in totals.items()}, whole


def shares(workload, seed):
    """Layer shares of one run of *workload*: ``(run phase, setup)``."""
    from repro.core.kernel import Kernel
    from scenarios import armed_context

    obs = armed_context() if workload.armed else None
    setup, run = cProfile.Profile(), cProfile.Profile()
    original = Kernel.run

    def profiled_run(kernel, *args, **kwargs):
        setup.disable()
        run.enable()
        try:
            return original(kernel, *args, **kwargs)
        finally:
            run.disable()
            setup.enable()

    Kernel.run = profiled_run
    try:
        setup.runcall(workload.run, seed, obs=obs)
    finally:
        Kernel.run = original
    return layer_shares(run), layer_shares(setup)


def print_table(title, table):
    layers = sorted({layer for row, _ in table.values() for layer in row},
                    key=lambda layer: -max(row.get(layer, 0.0)
                                           for row, _ in table.values()))
    print("%s\n" % title)
    print("| layer | " + " | ".join(table) + " |")
    print("|---|" + "---:|" * len(table))
    for layer in layers:
        print("| %s | %s |" % (layer, " | ".join(
            "%.0f%%" % (100 * row.get(layer, 0.0))
            for row, _ in table.values())))
    print("| profiled seconds | %s |\n" % " | ".join(
        "%.2f" % seconds for _, seconds in table.values()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    from scenarios import WORKLOADS

    results = {name: shares(workload, args.seed)
               for name, workload in WORKLOADS.items()}
    print_table("Run phase (inside Kernel.run)",
                {name: run for name, (run, _) in results.items()})
    print_table("Setup (outside Kernel.run)",
                {name: setup for name, (_, setup) in results.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
