"""``snap-sweep``: run a declarative parameter-grid sweep from the shell.

Declare the grid on the command line -- one ``--grid name=v1,v2,...``
per swept parameter -- and the :mod:`repro.bench.sweep` engine expands
the cartesian product, fans the cells over a process pool (``--workers``)
and prints the per-cell table.  A ``--grid`` or ``--fixed`` name the
scenario does not declare, or a non-numeric value for a numeric
parameter, is a usage error reported before any cell runs.  With
``--serial-check`` the same grid is re-run serially and the per-cell
meter digests are asserted bit-identical to the pooled run -- the
PR 4/6 differential pattern, wired into CI.

Examples::

    # list the registered scenarios
    snap-sweep --list

    # the Section 6 voltage curve, 3 replicas per point, 4 workers
    snap-sweep voltage_point --grid voltage=0.45,0.6,0.9,1.8 \
        --replicas 3 --workers 4

    # a voltage x BER grid with the pooled-vs-serial identity check,
    # dumping BENCH_SWEEP.json and the full report
    snap-sweep chain_ber --grid voltage=0.6,1.8 \
        --grid bit_error_rate=0.0,0.02 --replicas 2 --workers 4 \
        --serial-check --results-dir bench-results --json sweep.json

Exit codes: 0 on a clean sweep, 1 when any cell failed or the
``--serial-check`` digests diverge, 2 on usage trouble.
"""

import argparse
import json
import os
import sys

from repro.bench.reporting import atomic_write_json, dump_results, format_table
from repro.bench.sweep import (
    SCENARIOS,
    Sweep,
    cell_label,
    check_parameters,
    diverging_cells,
    run_sweep,
)


def _grid_value(text):
    """``0.6`` -> float, ``3`` -> int, anything else stays a string."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def parse_grid(specs):
    """``["voltage=0.6,1.8", ...]`` -> ``{"voltage": [0.6, 1.8], ...}``."""
    grid = {}
    for spec in specs or ():
        name, _, values = spec.partition("=")
        if not name or not values:
            raise ValueError("bad grid spec %r (want name=v1,v2,...)" % spec)
        grid[name] = [_grid_value(field) for field in values.split(",")]
    return grid


def _print_cells(result):
    rows = []
    for cell in result.cells:
        if cell.get("ok"):
            aggregates = cell.get("aggregates", {})
            summary = " ".join(
                "%s=%.6g" % (name, stats["mean"])
                for name, stats in aggregates.items()
                if name not in cell["params"])
            rows.append((cell["index"], cell_label(cell["params"]), "ok",
                         cell["digest"][:12], "%.3f" % cell["wall_time_s"],
                         summary))
        else:
            rows.append((cell["index"], cell_label(cell["params"]), "FAILED",
                         "-", "-", cell.get("error", "")))
    print(format_table(
        ("cell", "params", "status", "digest", "wall_s", "summary"), rows,
        title="sweep: %s  (%d cells x %d replicas, workers=%d)"
              % (result.sweep.scenario, len(result.cells),
                 result.sweep.replicas, result.workers)))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="snap-sweep",
        description="declarative parameter-grid sweeps with pooled "
                    "replicas")
    parser.add_argument("scenario", nargs="?",
                        help="registered sweep scenario (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--grid", action="append", metavar="NAME=V1,V2,...",
                        help="one swept parameter the scenario declares "
                             "(repeatable)")
    parser.add_argument("--fixed", action="append", metavar="NAME=VALUE",
                        help="one fixed parameter for every cell "
                             "(repeatable)")
    parser.add_argument("--replicas", type=int, default=1,
                        help="runs per cell with distinct seeds (default 1)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="root seed for replica-seed derivation")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width; 1 runs serially")
    parser.add_argument("--serial-check", action="store_true",
                        help="re-run the grid serially and assert per-cell "
                             "digest equality with the pooled run")
    parser.add_argument("--json", metavar="PATH",
                        help="write the aggregated sweep payload here")
    parser.add_argument("--results-dir", metavar="DIR",
                        help="dump BENCH_SWEEP.json into DIR "
                             "(dump_results shape)")
    parser.add_argument("--compact", action="store_true",
                        help="drop per-replica payload bodies from the "
                             "dumped cells (digests and aggregates stay)")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()
            print("%-16s %s" % (name, doc[0] if doc else ""))
        return 0
    if not args.scenario:
        parser.error("scenario required (or --list)")
    if args.scenario not in SCENARIOS:
        parser.error("unknown scenario %r (have: %s)"
                     % (args.scenario, ", ".join(sorted(SCENARIOS))))

    try:
        grid = parse_grid(args.grid)
        fixed_grid = parse_grid(args.fixed)
    except ValueError as error:
        parser.error(str(error))
    fixed = {name: values[0] for name, values in fixed_grid.items()}

    sweep = Sweep(scenario=args.scenario, grid=grid,
                  replicas=args.replicas, base_seed=args.base_seed,
                  fixed=fixed)
    try:
        check_parameters(sweep)
    except ValueError as error:
        parser.error(str(error))
    result = run_sweep(sweep, workers=args.workers,
                       progress=lambda cell: print(
                           "  cell %d %s: %s" % (
                               cell["index"], cell_label(cell["params"]),
                               "ok" if cell.get("ok")
                               else cell.get("error", "failed")),
                           file=sys.stderr))
    _print_cells(result)

    failed = len(result.failed_cells)
    payload = result.payload(compact=args.compact)
    # Pool speedup is bounded by the host's core count; record it so
    # wall-time comparisons in archived payloads are interpretable.
    payload["host_cpus"] = os.cpu_count()

    if args.serial_check:
        print("serial check: re-running %d cells with workers=1 ..."
              % len(result.cells), file=sys.stderr)
        serial = run_sweep(sweep, workers=1)
        divergences = diverging_cells(serial, result)
        payload["serial_check"] = {
            "wall_time_s": serial.wall_time_s,
            "pooled_wall_time_s": result.wall_time_s,
            "diverging_cells": [list(item) for item in divergences],
            "identical": not divergences,
        }
        if divergences:
            print("SERIAL CHECK FAILED: %d diverging cells"
                  % len(divergences))
            for index, serial_digest, pooled_digest in divergences:
                print("  cell %d: serial %s != pooled %s"
                      % (index, serial_digest, pooled_digest))
            failed += len(divergences)
        else:
            print("serial check: %d cells bit-identical "
                  "(serial %.2fs, pooled %.2fs)"
                  % (len(serial.cells), serial.wall_time_s,
                     result.wall_time_s))

    if args.json:
        atomic_write_json(args.json, payload)
        print("report: %s" % args.json)
    if args.results_dir:
        # The enriched payload (including any serial_check verdict), in
        # the standard dump_results BENCH_*.json shape.
        path = dump_results("SWEEP", payload, directory=args.results_dir,
                            wall_time_s=result.wall_time_s)
        print("dump: %s" % path)

    if result.interrupted:
        print("interrupted: %d cells completed, %d skipped"
              % (len(result.ok_cells), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
