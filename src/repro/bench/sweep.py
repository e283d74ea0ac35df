"""Fleet sweep engine: declarative parameter grids with pooled replicas.

Every Section-4 parameter study (voltage sweeps, bit-error-rate grids,
timer-cadence and topology studies) is embarrassingly parallel: a
cartesian grid of independent cells, each running one scenario at one
operating point, possibly several times with different seeds.  Declare
the grid once::

    sweep = Sweep(scenario="chain_ber",
                  grid={"voltage": [1.8, 0.6],
                        "bit_error_rate": [0.0, 0.02]},
                  replicas=2)
    result = run_sweep(sweep, workers=4)

and the engine

* expands the grid into cells (one per parameter combination),
* derives collision-free per-replica seeds with
  ``numpy.random.SeedSequence.spawn`` (cell ``i`` replica ``j`` never
  aliases cell ``i+1`` replica ``j-1`` the way ``seed + offset``
  derivations do),
* fans cells across a ``concurrent.futures`` process pool -- or runs
  them inline for ``workers=1``; within each process, replicas of the
  same (program, voltage, calibration) share predecoded slots through
  the core's process-wide slot memo,
* and aggregates per-cell results: full-precision meter digests, the
  numeric summary fields (mean/min/max across replicas), and wall time.

The correctness bar is the PR 4/6 differential pattern: a pooled sweep
is **bit-identical** (per-cell digests) to the same grid run serially.
:func:`diverging_cells` compares two runs; the ``snap-sweep
--serial-check`` CLI asserts it in CI and, on failure, the offending
cell can be re-run under ``snap-diff`` for localization.

A scenario is a registered callable ``fn(params, seed) -> dict``; the
returned dict must be JSON-serializable, deterministic for its inputs,
and should carry a ``digest`` entry with full-precision simulation state
(e.g. :func:`repro.sim.checkpoint.meter_digest`).  Register new ones
with :func:`sweep_scenario`, declaring every parameter with its default;
:func:`run_sweep` rejects a grid or fixed name the scenario does not
declare, or a non-numeric value for a numeric default, before any cell
runs.  Pooled workers resolve scenarios by name, so the defining module
must be importable (or already imported, under the default ``fork``
start method) in the worker.
"""

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List

import numpy as np

from repro.bench.reporting import _jsonable, dump_results
from repro.core import CoreConfig, SnapProcessor

SCHEMA = "repro.bench.sweep/1"

#: Registered sweep scenarios: name -> ``fn(params, seed) -> dict``.
SCENARIOS = {}
#: Declared parameters of each scenario: name -> ``{param: default}``.
PARAMETERS = {}


def sweep_scenario(name, **defaults):
    """Decorator registering a sweep scenario under *name*.

    *defaults* declares every parameter the scenario reads, with the
    value a cell gets when neither the grid nor the fixed parameters
    set it."""

    def register(fn):
        SCENARIOS[name] = fn
        PARAMETERS[name] = defaults
        return fn

    return register


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_parameters(sweep):
    """Raise ``ValueError`` unless every grid and fixed parameter of
    *sweep* is declared by its scenario, with a number wherever the
    declared default is one."""
    defaults = PARAMETERS[sweep.scenario]
    axes = list(sweep.grid.items())
    axes += [(name, [value]) for name, value in sweep.fixed.items()]
    for name, values in axes:
        if name not in defaults:
            raise ValueError(
                "scenario %r has no parameter %r (have: %s)"
                % (sweep.scenario, name, ", ".join(sorted(defaults))))
        if _is_number(defaults[name]):
            for value in values:
                if not _is_number(value):
                    raise ValueError("parameter %r of scenario %r must be "
                                     "a number, not %r"
                                     % (name, sweep.scenario, value))


@dataclass
class Sweep:
    """A declarative parameter study.

    *scenario* names a :data:`SCENARIOS` entry; *grid* maps parameter
    names to the values to sweep (cells are the cartesian product, in
    the grid's key/value order); *fixed* parameters reach every cell
    unchanged; *replicas* runs each cell that many times with distinct
    :func:`replica seeds <seeds_for>` derived from *base_seed*.
    """

    scenario: str
    grid: Dict[str, list] = field(default_factory=dict)
    replicas: int = 1
    base_seed: int = 0
    fixed: Dict[str, object] = field(default_factory=dict)

    def cells(self):
        """The parameter dict of every cell, in deterministic order."""
        names = list(self.grid)
        combos = product(*(self.grid[name] for name in names)) \
            if names else [()]
        cells = []
        for values in combos:
            params = dict(self.fixed)
            params.update(zip(names, values))
            cells.append(params)
        return cells

    def seeds(self):
        """Per-cell replica seeds, collision-free by construction.

        ``SeedSequence(base_seed)`` spawns one child per cell and each
        cell child spawns one grandchild per replica, so the (cell,
        replica) -> stream mapping is injective -- unlike ``seed + k``
        arithmetic, where cell ``s+1`` replica 0 aliases cell ``s``
        replica 1.
        """
        cell_sequences = np.random.SeedSequence(self.base_seed).spawn(
            len(self.cells()))
        return [[int(child.generate_state(1)[0])
                 for child in cell_seq.spawn(self.replicas)]
                for cell_seq in cell_sequences]

    def tasks(self):
        return [{"scenario": self.scenario, "index": index,
                 "params": params, "seeds": seeds}
                for index, (params, seeds)
                in enumerate(zip(self.cells(), self.seeds()))]


def cell_label(params):
    """Stable human/metric label for a cell: ``voltage=0.6,ber=0.02``."""
    return ",".join("%s=%s" % (name, params[name]) for name in params)


def _digest(replicas):
    """sha256 over the canonical JSON of the replica payloads."""
    canonical = json.dumps(_jsonable(replicas), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _aggregate(replicas):
    """mean/min/max of every numeric top-level field across replicas."""
    aggregates = {}
    for name in replicas[0]:
        values = [replica.get(name) for replica in replicas]
        if all(isinstance(value, (int, float))
               and not isinstance(value, bool) for value in values):
            aggregates[name] = {"mean": sum(values) / len(values),
                                "min": min(values), "max": max(values)}
    return aggregates


def run_cell(task):
    """Run one cell's replicas; returns the cell result dict.

    The scenario sees its declared defaults overlaid with the cell's
    parameters.  Scenario exceptions are folded into an ``ok: False``
    cell (the sweep reports failures per-cell instead of losing the
    grid); ``KeyboardInterrupt`` propagates so the caller can stop the
    sweep.
    """
    scenario = SCENARIOS[task["scenario"]]
    defaults = PARAMETERS[task["scenario"]]
    started = time.perf_counter()
    cell = {"index": task["index"], "params": dict(task["params"]),
            "seeds": list(task["seeds"])}
    try:
        replicas = [_jsonable(scenario(dict(defaults, **task["params"]),
                                       seed))
                    for seed in task["seeds"]]
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        cell.update(ok=False, error="%s: %s" % (type(exc).__name__, exc),
                    wall_time_s=time.perf_counter() - started)
        return cell
    cell.update(ok=True, replicas=replicas, digest=_digest(replicas),
                aggregates=_aggregate(replicas),
                wall_time_s=time.perf_counter() - started)
    return cell


def _interrupted_cell(task):
    return {"index": task["index"], "params": dict(task["params"]),
            "seeds": list(task["seeds"]), "ok": False,
            "error": "interrupted"}


@dataclass
class SweepResult:
    sweep: Sweep
    workers: int
    cells: List[dict]
    wall_time_s: float
    interrupted: bool = False

    @property
    def ok_cells(self):
        return [cell for cell in self.cells if cell.get("ok")]

    @property
    def failed_cells(self):
        return [cell for cell in self.cells if not cell.get("ok")]

    def digests(self):
        """``{cell_index: digest}`` for every completed cell."""
        return {cell["index"]: cell["digest"] for cell in self.ok_cells}

    def payload(self, compact=False):
        """The aggregated, JSON-ready sweep payload (``BENCH_*`` shape).

        With *compact*, each cell keeps its digest and aggregates but
        drops the per-replica payload bodies -- the shape to archive or
        commit (a network digest per replica per cell adds up fast).
        """
        cells = self.cells
        if compact:
            cells = [{key: value for key, value in cell.items()
                      if key != "replicas"} for cell in cells]
        return {
            "schema": SCHEMA,
            "scenario": self.sweep.scenario,
            "grid": _jsonable(self.sweep.grid),
            "fixed": _jsonable(self.sweep.fixed),
            "replicas": self.sweep.replicas,
            "base_seed": self.sweep.base_seed,
            "workers": self.workers,
            "interrupted": self.interrupted,
            "cells_total": len(self.cells),
            "cells_ok": len(self.ok_cells),
            "cells_failed": len(self.failed_cells),
            "wall_time_s": self.wall_time_s,
            "cells": cells,
        }

    def dump(self, name, directory=None):
        """Write ``BENCH_<name>.json`` via :func:`dump_results`."""
        return dump_results(name, self.payload(), directory=directory,
                            wall_time_s=self.wall_time_s)


def run_sweep(sweep, workers=None, progress=None):
    """Run every cell of *sweep*; returns a :class:`SweepResult`.

    ``workers=None``/``0``/``1`` runs serially in-process;
    ``workers > 1`` fans cells over a process pool, one task per cell.
    Results are bit-identical either way.  Grid and fixed parameters are
    checked with :func:`check_parameters` before any cell runs.

    A ``KeyboardInterrupt`` stops the sweep but keeps every completed
    cell: the remaining cells are marked ``error: "interrupted"`` and
    the result carries ``interrupted=True``.  A scenario exception or a
    crashed worker is reported on its own cell; the rest of the grid
    still runs.
    """
    if sweep.scenario not in SCENARIOS:
        raise ValueError("unknown sweep scenario %r (have: %s)"
                         % (sweep.scenario, ", ".join(sorted(SCENARIOS))))
    check_parameters(sweep)
    tasks = sweep.tasks()
    started = time.perf_counter()
    if not workers or workers <= 1:
        result = _run_serial(tasks, progress)
        result.sweep = sweep
        result.wall_time_s = time.perf_counter() - started
        return result

    cells, interrupted = [None] * len(tasks), False
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers) as pool:
        futures = [pool.submit(run_cell, task) for task in tasks]
        for task, future in zip(tasks, futures):
            if interrupted:
                future.cancel()
                cells[task["index"]] = _interrupted_cell(task)
                continue
            try:
                cell = future.result()
            except KeyboardInterrupt:
                # Stop the sweep, keep what finished: cancel the rest
                # and mark this and every later cell interrupted.
                interrupted = True
                cell = _interrupted_cell(task)
            except concurrent.futures.CancelledError:
                cell = _interrupted_cell(task)
            except Exception as exc:
                # Worker crash (BrokenProcessPool, pickling failure):
                # the loss is confined to this cell's row.
                cell = dict(_interrupted_cell(task),
                            error="%s: %s" % (type(exc).__name__, exc))
            cells[task["index"]] = cell
            if progress is not None:
                progress(cell)
    return SweepResult(sweep=sweep, workers=workers, cells=cells,
                       wall_time_s=time.perf_counter() - started,
                       interrupted=interrupted)


def _run_serial(tasks, progress):
    cells, interrupted = [], False
    for task in tasks:
        if interrupted:
            cells.append(_interrupted_cell(task))
            continue
        try:
            cell = run_cell(task)
        except KeyboardInterrupt:
            interrupted = True
            cell = _interrupted_cell(task)
        cells.append(cell)
        if progress is not None and not interrupted:
            progress(cell)
    return SweepResult(sweep=None, workers=1, cells=cells, wall_time_s=0.0,
                       interrupted=interrupted)


def diverging_cells(a, b):
    """Cells whose digests differ between two runs of the same grid.

    Returns ``[(index, digest_a, digest_b), ...]`` -- empty means the
    runs are bit-identical cell for cell (the pooled-vs-serial
    contract).  Cells missing from either side (failed / interrupted)
    are reported with ``None`` digests.
    """
    digests_a, digests_b = a.digests(), b.digests()
    divergences = []
    for index in sorted(set(digests_a) | set(digests_b)):
        if digests_a.get(index) != digests_b.get(index):
            divergences.append((index, digests_a.get(index),
                                digests_b.get(index)))
    return divergences


#: Keys whose values are host-dependent, stripped before comparing two
#: aggregated payloads for equality (``modulo host wall-time fields``).
VOLATILE_KEYS = ("wall_time_s", "workers", "host")


def strip_volatile(payload):
    """A deep copy of *payload* with host-dependent fields removed."""
    if isinstance(payload, dict):
        return {key: strip_volatile(value) for key, value in payload.items()
                if key not in VOLATILE_KEYS}
    if isinstance(payload, list):
        return [strip_volatile(item) for item in payload]
    return payload


# -- built-in scenarios -------------------------------------------------------


def _energy_fields(meters_and_radios):
    """Flat per-layer energy summary fields for one cell result.

    *meters_and_radios* is an iterable of ``(meter, radio_energy_j)``
    pairs.  Returns picojoule-valued numeric fields (``energy_total_pj``
    plus ``energy_<layer>_pj``) so ``_aggregate`` folds them into the
    cell aggregates and the trajectory flattener picks them up.
    """
    from repro.obs.energy import layer_split_from_meter

    totals = {}
    grand = 0.0
    for meter, radio_energy in meters_and_radios:
        split = layer_split_from_meter(meter, radio_energy=radio_energy)
        for layer, energy in split.items():
            totals[layer] = totals.get(layer, 0.0) + energy
            grand += energy
    fields = {"energy_total_pj": grand * 1e12}
    for layer, energy in totals.items():
        fields["energy_%s_pj" % layer.replace("-", "_")] = energy * 1e12
    return fields


@sweep_scenario("voltage_point", voltage=0.6)
def voltage_point(params, seed):
    """One operating point of the Section 6 voltage/energy curve.

    Parameters: ``voltage`` (default 0.6).  Replicas are bit-identical (the
    workload is a fixed counted loop); the per-replica digest is the
    full-precision meter digest.
    """
    from repro.asm import build
    from repro.bench.ablations import SWEEP_LOOP
    from repro.sim.checkpoint import meter_digest

    voltage = params["voltage"]
    processor = SnapProcessor(config=CoreConfig(voltage=voltage))
    processor.load(build(SWEEP_LOOP))
    meter = processor.run()
    epi = meter.energy_per_instruction
    mips = meter.average_mips()
    result = {"voltage": voltage, "mips": mips,
              "energy_per_instruction": epi,
              "energy_delay": epi / (mips * 1e6),
              "digest": meter_digest(processor)}
    result.update(_energy_fields([(meter, 0.0)]))
    return result


@sweep_scenario("handler_suite", voltage=0.6)
def handler_suite(params, seed):
    """The six-scenario handler suite at one voltage -- run exactly once
    per cell, with throughput and the results summary reduced from the
    same rows (the satellite fix to ``throughput_and_wakeup``).

    Parameters: ``voltage`` (default 0.6).
    """
    from repro.bench.harness import (
        handler_table,
        results_summary,
        throughput_and_wakeup,
    )

    voltage = params["voltage"]
    rows = handler_table(voltage)
    throughput = throughput_and_wakeup(voltage, rows=rows)
    summary = results_summary(voltage, rows=rows)
    return {
        "voltage": voltage,
        "mips": throughput.mips,
        "wakeup_latency_s": throughput.wakeup_latency_s,
        "min_handler_energy": summary.min_handler_energy,
        "max_handler_energy": summary.max_handler_energy,
        "power_at_10hz_low": summary.power_at_10hz_low,
        "power_at_10hz_high": summary.power_at_10hz_high,
        "rows": [dataclasses.asdict(row) for row in rows],
        # The rows carry every full-precision meter-derived value, so
        # they are the digest payload as well.
        "digest": {"rows": [[row.name, row.instructions, row.cycles,
                             row.energy, row.busy_time] for row in rows]},
    }


@sweep_scenario("chain_ber", voltage=0.6, bit_error_rate=0.0, packets=3,
                hops=2)
def chain_ber(params, seed):
    """Multi-hop DATA delivery over a noisy channel: the BER grid.

    Parameters: ``voltage`` (default 0.6), ``bit_error_rate`` (0.0),
    ``packets`` (3) and ``hops`` (2 relays).  The
    channel noise RNG is seeded per replica, so replicas sample
    independent noise while staying exactly reproducible.
    """
    from repro.scenarios import build_chain, send
    from repro.sim.checkpoint import network_digest

    voltage = params["voltage"]
    bit_error_rate = params["bit_error_rate"]
    packets = int(params["packets"])
    relays = int(params["hops"])

    net, app_dest = build_chain(nodes=relays + 1,
                                bit_error_rate=bit_error_rate,
                                corruption="flip", seed=seed,
                                voltage=voltage)
    for sequence in range(packets):
        send(net, sequence, app_dest)
        net.run(until=net.kernel.now + 0.05)

    digest = network_digest(net)
    result = {
        "voltage": voltage,
        "bit_error_rate": bit_error_rate,
        "packets": packets,
        "words_carried": net.channel.words_carried,
        "collisions": net.channel.collisions,
        "noise_corruptions": net.channel.noise_corruptions,
        "instructions": sum(node.meter.instructions
                            for node in net.nodes.values()),
        "total_energy": sum(node.meter.total_energy
                            for node in net.nodes.values()),
        "digest": digest,
    }
    result.update(_energy_fields([(node.meter, node.radio.radio_energy())
                                  for node in net.nodes.values()]))
    return result
