"""The one per-instruction cost table (:class:`repro.obs.Profiler`).

Its sites are keyed by ``(node, pc, handler, mnemonic)`` and every
table -- hot PCs, handlers, classes -- is a rollup of them.  These
tests pin the two things a coarser key gets wrong:

* hot-PC rows are per ``(node, pc)``: on a network the same pc holds
  different instructions on different nodes;
* the mnemonic is in the site key: on the self-modifying ``sti``
  scenario one ``(node, pc)`` retires two instructions of different
  classes, and the per-class counts must still equal the meter's.
"""

import pytest

from repro.node import SensorNode
from repro.obs import MemorySink, Observability
from repro.scenarios import CATALOGUE, run_to


def _counts(node):
    """A node's meter counts per instruction class and per handler."""
    meter = node.processor.meter
    return ({cls.value: stats.count for cls, stats in meter.by_class.items()},
            {tag: stats.instructions
             for tag, stats in meter.by_handler.items()})


def _profiled(name, fast_path=True, sink=None):
    """Run a catalogue scenario under a profiler; returns the profiler
    and, per node, the meter counts retired while it listened (a
    scenario's staged prologue runs before it is attached)."""
    sim, horizon = CATALOGUE[name](fast_path)
    obs = Observability(profile=True)
    if sink is not None:
        obs.bus.attach(sink)
    sim.attach_observability(obs)
    nodes = [sim] if isinstance(sim, SensorNode) else list(sim.nodes.values())
    before = [_counts(node) for node in nodes]
    run_to(sim, horizon)
    retired = {}
    for node, (classes_0, handlers_0) in zip(nodes, before):
        classes, handlers = _counts(node)
        retired[node.processor.name] = tuple(
            {key: value - start.get(key, 0) for key, value in now.items()
             if value - start.get(key, 0)}
            for now, start in ((classes, classes_0), (handlers, handlers_0)))
    return obs.profiler, retired


def test_hot_pc_rows_are_per_node():
    sink = MemorySink()
    profiler, _ = _profiled("convergecast", sink=sink)
    retired = {}
    for record in sink.records():
        if record["type"] == "instruction":
            retired.setdefault((record["node"], record["pc"]),
                               set()).add(record["mnemonic"])
    spots = profiler.hotspots(top=None)
    assert len(spots) == len(retired)
    for spot in spots:
        assert {spot.mnemonic} == retired[(spot.node, spot.pc)], \
            (spot.node, spot.pc)
    report = profiler.report(top=3)
    assert all(spot.node in report for spot in spots[:3])


@pytest.mark.parametrize("name,fast_path", [
    ("sti", True), ("sti", False), ("convergecast", True)])
def test_rollups_match_the_meter(name, fast_path):
    profiler, retired = _profiled(name, fast_path)
    classes = profiler.rollup(("node", "instr_class"))
    handlers = profiler.rollup(("node", "handler"))
    for cpu, (meter_classes, meter_handlers) in retired.items():
        assert {cls: cost.count for (owner, cls), cost in classes.items()
                if owner == cpu} == meter_classes, cpu
        assert {tag: cost.count for (owner, tag), cost in handlers.items()
                if owner == cpu and cost.count} == meter_handlers, cpu


def test_sti_rewrites_a_pc_in_place():
    """The case the mnemonic in the site key exists for."""
    profiler, _ = _profiled("sti")
    rewritten = [cost for cost in profiler.rollup(("node", "pc")).values()
                 if cost.mnemonic is None]
    assert rewritten
    for cost in rewritten:
        sites = [site for site in profiler.sites.values()
                 if (site.node, site.pc) == (cost.node, cost.pc)]
        assert len({site.instr_class for site in sites}) > 1
        assert sum(site.count for site in sites) == cost.count
