"""The benchmark's workloads, driven through the program's public entry
points only: :func:`repro.network.experiments.convergecast` for the
networks, :class:`repro.node.SensorNode` plus
:func:`repro.netstack.build_blink_app` for the single blink node, and
:class:`repro.obs.Observability` for the armed configuration.

Each workload runs one fixed simulated horizon and returns a
:class:`Sample`: host setup and run times, the simulated outputs the
correctness gate compares, and the work counters the per-layer report
divides by.
"""

import dataclasses
import time

from repro.core import CoreConfig
from repro.netstack import build_blink_app
from repro.network.experiments import convergecast
from repro.node import SensorNode
from repro.obs import Observability
from repro.sim.checkpoint import network_digest

#: Blink has no random input, so the seed picks its timer period (1 MHz
#: ticks) from this set.  The periods sit within 2% of each other, so
#: every seed does nearly the same amount of work while a held-out seed
#: is still a different input.
BLINK_PERIODS_TICKS = (980, 990, 1000, 1010, 1020)

#: Convergecast sample period: every reporter samples and sends each
#: 0.1 s.
CONVERGECAST_PERIOD_S = 0.1

#: Host-side fast-path statistics in each node's ``cpu`` snapshot.  They
#: count how the burst engine batched its work, so they are zero on the
#: reference engine by design and are left out of the compared outputs.
ENGINE_COUNTERS = ("bursts", "burst_instructions")


@dataclasses.dataclass
class Sample:
    """One run of a workload."""

    setup_s: float
    run_s: float
    #: ``time.perf_counter()`` when simulated time started.
    run_start: float
    #: Simulated outputs; two runs agree when these compare equal.
    output: dict
    #: instructions, bursts, burst_instructions, collisions,
    #: noise_corruptions -- summed over nodes.
    counters: dict


def armed_context():
    """The armed configuration: metrics registry plus flight recorder,
    no bus sinks (the always-on blackbox)."""
    return Observability(flight=True)


class _SetupClock:
    """Passed as ``convergecast(obs=...)``: convergecast() hands it the
    fully built and loaded network just before simulated time starts,
    which is where setup ends.  Attaches the real context, if any,
    first, so attaching observability counts as setup."""

    def __init__(self, obs):
        self.obs = obs
        self.at = None

    def observe(self, net):
        if self.obs is not None:
            self.obs.observe(net)
        self.at = time.perf_counter()
        return net


@dataclasses.dataclass(frozen=True)
class Convergecast:
    """A line of *nodes* nodes reporting to node 1 every 0.1 s."""

    name: str
    why: str
    nodes: int
    horizon_s: float
    armed: bool = False

    def run(self, seed, fast_path=True, obs=None):
        clock = _SetupClock(obs)
        start = time.perf_counter()
        result = convergecast(
            chain_length=self.nodes, period_s=CONVERGECAST_PERIOD_S,
            duration_s=self.horizon_s, seed=seed, fast_path=fast_path,
            obs=clock)
        end = time.perf_counter()
        if clock.at is None:
            raise RuntimeError("convergecast() never attached the setup "
                               "clock; setup time is unmeasurable")
        output = dataclasses.asdict(result)
        counters = dict.fromkeys(ENGINE_COUNTERS, 0)
        for node in output["metrics"]["nodes"].values():
            for key in ENGINE_COUNTERS:
                counters[key] += node["cpu"].pop(key)
        channel = output["metrics"]["channel"]
        counters.update(
            instructions=output["metrics"]["totals"]["instructions"],
            collisions=channel["collisions"],
            noise_corruptions=channel["noise_corruptions"])
        return Sample(setup_s=clock.at - start, run_s=end - clock.at,
                      run_start=clock.at, output=output, counters=counters)


@dataclasses.dataclass(frozen=True)
class Blink:
    """One fig. 5 blink node: no channel, no radio traffic."""

    name: str
    why: str
    horizon_s: float
    armed: bool = False

    def run(self, seed, fast_path=True, obs=None):
        period = BLINK_PERIODS_TICKS[seed % len(BLINK_PERIODS_TICKS)]
        start = time.perf_counter()
        node = SensorNode(config=CoreConfig(fast_path=fast_path))
        node.load(build_blink_app(period_ticks=period))
        if obs is not None:
            obs.observe(node)
        setup_end = time.perf_counter()
        node.run(until=self.horizon_s)
        end = time.perf_counter()
        processor = node.processor
        counters = {
            "instructions": node.meter.instructions,
            "bursts": processor.bursts,
            "burst_instructions": processor.burst_instructions,
            "collisions": 0,
            "noise_corruptions": 0,
        }
        return Sample(setup_s=setup_end - start, run_s=end - setup_end,
                      run_start=setup_end, output=network_digest(node),
                      counters=counters)


WORKLOADS = {workload.name: workload for workload in (
    Convergecast(
        "convergecast-32",
        "32-node line, bare: channel-bound run (most host time in "
        "radio/channel.py) and a large setup (32 assembled images)",
        nodes=32, horizon_s=0.5),
    Blink(
        "blink-solo",
        "one fig. 5 blink node, bare: core-bound, no channel or obs "
        "calls, so channel and obs changes must leave it unchanged",
        horizon_s=5.0),
    Convergecast(
        "convergecast-4-armed",
        "4-node line with Observability(flight=True): a hook on every "
        "instruction, dispatch and radio word; sets the obs overhead",
        nodes=4, horizon_s=2.0, armed=True),
)}
