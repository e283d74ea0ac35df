"""Runtime invariant watchdog.

A :class:`Watchdog` re-checks cross-cutting simulator invariants at a
configurable cadence while the simulation runs, instead of only at
end-of-run assertions in tests.  Each check is read-only (counter-free
``peek`` accesses, no meter writes, no event tokens), so an armed
watchdog leaves simulation results bit-identical -- its periodic kernel
callback merely interleaves with the existing timeline.

Invariant catalogue (see ``docs/OBSERVABILITY.md`` for per-check cost):

``energy_conservation``
    ``EnergyMeter.total_energy`` equals the sum of its component
    breakdowns (core buckets + memories + wakeup + event-token + idle)
    to within float tolerance -- the fast-path burst accumulators and
    the reference path must not diverge.
``meter_consistency``
    Instruction counts reconcile across the per-class and per-handler
    tables, and cycles never undercount instructions.
``clock_monotonic``
    Kernel time is finite, non-negative, and never moves backwards
    between checks.  The periodic check runs on the kernel's
    interaction lane, whose clock is monotone even when fast-engine
    cores run ahead of one another (see :mod:`repro.core.kernel`).
``heap_liveness``
    The kernel's live index and its two lanes agree: as many live
    callbacks sit on the lanes as the index holds (a "leaked cancel"
    -- an entry nulled without dropping its index, or vice versa -- is
    exactly what this catches).
``queue_bounds``
    The hardware event queue and both r15 FIFOs respect their
    configured capacities.
``mac_legality``
    The MAC's DMEM state cells are legal: receive index/expectation
    within the 32-word frame buffer, ``RX_READY`` a flag, packet
    counters monotonic modulo 2^16.
``aodv_legality``
    Routing-layer counters monotonic; the RREQ duplicate-suppression
    ring index within the table.
``energy_budget``
    Each node with a configured joule budget (``budgets={name: J}``)
    stays under it -- CPU meter plus radio.  Unconfigured nodes are
    exempt, so the check is a no-op unless budgets are set.

A failed check raises :class:`InvariantViolation` carrying the invariant
name, the offending component, and -- when a flight recorder is attached
-- a snapshot of its rings, so the crash bundle can show what the node
was doing when the invariant broke.
"""

import math

from repro.core.exceptions import SimulationError
from repro.netstack import layout
from repro.netstack.aodv import AODV_COUNTER_CELLS
from repro.netstack.mac import MAC_COUNTER_CELLS

#: Words in one MAC frame buffer (RX_BUF and TX_BUF are adjacent).
_FRAME_WORDS = layout.TX_BUF - layout.RX_BUF

DEFAULT_INVARIANTS = (
    "energy_conservation",
    "meter_consistency",
    "clock_monotonic",
    "heap_liveness",
    "queue_bounds",
    "mac_legality",
    "aodv_legality",
    "energy_budget",
)


class InvariantViolation(SimulationError):
    """A watchdog invariant failed.

    Carries the invariant name, the node (or component) it failed on,
    and -- when the watchdog has a flight recorder -- a ring snapshot
    taken at detection time.
    """

    def __init__(self, invariant, message, node=None, snapshot=None):
        prefix = "%s: " % node if node else ""
        super().__init__("%sinvariant %r violated: %s"
                         % (prefix, invariant, message))
        self.invariant = invariant
        self.node = node
        self.snapshot = snapshot


class Watchdog:
    """Periodic invariant checker over processors, nodes, and kernels."""

    def __init__(self, interval=1e-3, invariants=None, recorder=None,
                 rel_tolerance=1e-9, budgets=None):
        if interval <= 0:
            raise ValueError("watchdog interval must be positive")
        unknown = set(invariants or ()) - set(DEFAULT_INVARIANTS)
        if unknown:
            raise ValueError("unknown invariants: %s"
                             % ", ".join(sorted(unknown)))
        self.interval = interval
        self.invariants = tuple(invariants) if invariants is not None \
            else DEFAULT_INVARIANTS
        self.recorder = recorder
        #: Relative tolerance for float energy reconciliation: the burst
        #: loop's write-backs are bit-identical, but component sums are
        #: accumulated in a different order than the total.
        self.rel_tolerance = rel_tolerance
        #: node name -> energy budget in joules; nodes absent from the
        #: map are exempt from the ``energy_budget`` invariant.
        self.budgets = dict(budgets) if budgets else {}
        self.kernel = None
        self.processors = []
        self._nodes = []
        self._handle = None
        self._last_now = None
        #: node name -> last sampled counter dicts, for monotonicity.
        self._mac_last = {}
        self._aodv_last = {}
        self.checks_run = 0

    @property
    def armed(self):
        """True while a periodic check is scheduled."""
        return self._handle is not None

    # -- registration ----------------------------------------------------------

    def watch(self, target):
        """Register a processor, node, or network simulator.

        Returns the list of processors newly covered (one for a core or
        node, one per node for a simulator).
        """
        if hasattr(target, "nodes"):        # NetworkSimulator
            added = []
            for node in target.nodes.values():
                added.extend(self._watch_node(node))
            self._adopt_kernel(target.kernel)
            return added
        if hasattr(target, "processor"):    # SensorNode
            added = self._watch_node(target)
            self._adopt_kernel(target.kernel)
            return added
        # Bare SnapProcessor.
        self.processors.append(target)
        self._adopt_kernel(target.kernel)
        return [target]

    def _watch_node(self, node):
        self._nodes.append(node)
        self.processors.append(node.processor)
        return [node.processor]

    def _adopt_kernel(self, kernel):
        if self.kernel is None:
            self.kernel = kernel
        elif self.kernel is not kernel:
            raise ValueError(
                "watchdog targets must share one kernel; observe the "
                "network simulator instead of its nodes individually")

    # -- scheduling ------------------------------------------------------------

    def start(self):
        """Arm the periodic check on the watched kernel."""
        if self.kernel is None:
            raise ValueError("nothing watched yet -- call watch() first")
        if self._handle is None:
            self._handle = self.kernel.schedule(self.interval, self._tick)
        return self

    def stop(self):
        """Disarm the periodic check."""
        if self._handle is not None:
            self.kernel.cancel(self._handle)
            self._handle = None

    def _tick(self):
        self._handle = None
        self.check()
        # Re-arm only while other activity is pending: once the rest of
        # the simulation drains, the watchdog must not keep the kernel
        # alive (that would mask deadlocks and hang unbounded runs).
        if self.kernel.pending > 0:
            self._handle = self.kernel.schedule(self.interval, self._tick)

    # -- checking --------------------------------------------------------------

    def check(self):
        """Run every enabled invariant once; raises on the first failure."""
        self.checks_run += 1
        enabled = self.invariants
        if self.kernel is not None and "clock_monotonic" in enabled:
            self._check_clock(self.kernel)
        if self.kernel is not None and "heap_liveness" in enabled:
            self._check_heap(self.kernel)
        for processor in self.processors:
            if "energy_conservation" in enabled:
                self._check_energy(processor)
            if "meter_consistency" in enabled:
                self._check_meter(processor)
            if "queue_bounds" in enabled:
                self._check_queues(processor)
        for node in self._nodes:
            if not node.loaded:
                continue
            if "mac_legality" in enabled:
                self._check_mac(node)
            if "aodv_legality" in enabled:
                self._check_aodv(node)
        if self.budgets and "energy_budget" in enabled:
            for node in self._nodes:
                self._check_budget(node)

    def _fail(self, invariant, message, node=None):
        snapshot = None
        if self.recorder is not None:
            snapshot = self.recorder.snapshot()
        raise InvariantViolation(invariant, message, node=node,
                                 snapshot=snapshot)

    # -- individual invariants -------------------------------------------------

    def _check_clock(self, kernel):
        now = kernel.now
        if not math.isfinite(now) or now < 0.0:
            self._fail("clock_monotonic",
                       "kernel time %r is not a finite non-negative value"
                       % (now,))
        if self._last_now is not None and now < self._last_now:
            self._fail("clock_monotonic",
                       "kernel time moved backwards: %r after %r"
                       % (now, self._last_now))
        self._last_now = now

    def _check_heap(self, kernel):
        live_on_heap = sum(1 for entry in kernel.heap_entries()
                           if entry[2] is not None)
        if live_on_heap != kernel.pending:
            self._fail("heap_liveness",
                       "%d live callbacks on the heap but %d indexed (a "
                       "cancelled entry leaked in the live index?)"
                       % (live_on_heap, kernel.pending))

    def _energy_close(self, total, components):
        tolerance = self.rel_tolerance * max(abs(total), abs(components),
                                             1e-12)
        return abs(total - components) <= tolerance

    def _check_energy(self, processor):
        meter = processor.meter
        components = (meter.core_energy + meter.memory_energy
                      + meter.wakeup_energy + meter.event_token_energy
                      + meter.idle_energy)
        if not self._energy_close(meter.total_energy, components):
            self._fail(
                "energy_conservation",
                "total %.18e J != component sum %.18e J (delta %.3e J)"
                % (meter.total_energy, components,
                   meter.total_energy - components),
                node=processor.name)

    def _check_meter(self, processor):
        meter = processor.meter
        by_class = sum(stats.count for stats in meter.by_class.values())
        if by_class != meter.instructions:
            self._fail("meter_consistency",
                       "per-class counts sum to %d but %d instructions "
                       "retired" % (by_class, meter.instructions),
                       node=processor.name)
        by_handler = sum(stats.instructions
                         for stats in meter.by_handler.values())
        if by_handler != meter.instructions:
            self._fail("meter_consistency",
                       "per-handler counts sum to %d but %d instructions "
                       "retired" % (by_handler, meter.instructions),
                       node=processor.name)
        if meter.cycles < meter.instructions:
            self._fail("meter_consistency",
                       "%d cycles < %d instructions"
                       % (meter.cycles, meter.instructions),
                       node=processor.name)
        instruction_energy = (meter.total_energy - meter.wakeup_energy
                              - meter.event_token_energy - meter.idle_energy)
        class_energy = sum(stats.energy for stats in meter.by_class.values())
        if not self._energy_close(instruction_energy, class_energy):
            self._fail("meter_consistency",
                       "per-class energy %.18e J != instruction energy "
                       "%.18e J" % (class_energy, instruction_energy),
                       node=processor.name)

    def _check_queues(self, processor):
        queue = processor.event_queue
        if len(queue) > queue.capacity:
            self._fail("queue_bounds",
                       "event queue holds %d tokens (capacity %d)"
                       % (len(queue), queue.capacity), node=processor.name)
        for fifo in (processor.mcp.incoming, processor.mcp.outgoing):
            if len(fifo) > fifo.capacity:
                self._fail("queue_bounds",
                           "%s holds %d words (capacity %d)"
                           % (fifo.name, len(fifo), fifo.capacity),
                           node=processor.name)

    def _check_mac(self, node):
        dmem = node.processor.dmem
        rx_index = dmem.peek(layout.RX_INDEX_ADDR)
        if rx_index > _FRAME_WORDS:
            self._fail("mac_legality",
                       "RX write index %d exceeds the %d-word frame buffer"
                       % (rx_index, _FRAME_WORDS), node=node.name)
        rx_expect = dmem.peek(layout.RX_EXPECT_ADDR)
        if rx_expect > _FRAME_WORDS:
            self._fail("mac_legality",
                       "RX expected length %d exceeds the %d-word frame "
                       "buffer" % (rx_expect, _FRAME_WORDS), node=node.name)
        rx_ready = dmem.peek(layout.RX_READY_ADDR)
        if rx_ready not in (0, 1):
            self._fail("mac_legality",
                       "RX_READY is %d, expected a 0/1 flag" % rx_ready,
                       node=node.name)
        self._check_counters("mac_legality", node, dmem, MAC_COUNTER_CELLS,
                             self._mac_last)

    def _check_aodv(self, node):
        dmem = node.processor.dmem
        seen_idx = dmem.peek(layout.SEEN_IDX_ADDR)
        if seen_idx >= layout.SEEN_ENTRIES:
            self._fail("aodv_legality",
                       "RREQ seen-table index %d outside the %d-entry ring"
                       % (seen_idx, layout.SEEN_ENTRIES), node=node.name)
        self._check_counters("aodv_legality", node, dmem, AODV_COUNTER_CELLS,
                             self._aodv_last)

    def _check_budget(self, node):
        budget = self.budgets.get(node.name)
        if budget is None:
            return
        spent = node.meter.total_energy + node.radio.radio_energy()
        if spent > budget:
            self._fail("energy_budget",
                       "node spent %.6e J of its %.6e J budget "
                       "(%.1f%% over)"
                       % (spent, budget, 100.0 * (spent / budget - 1.0)),
                       node=node.name)

    def _check_counters(self, invariant, node, dmem, cells, last_map):
        current = {name: dmem.peek(address)
                   for name, address in cells.items()}
        last = last_map.get(node.name)
        if last is not None:
            for name, value in current.items():
                delta = (value - last[name]) & 0xFFFF
                if delta >= 0x8000:
                    self._fail(invariant,
                               "counter %r moved backwards: %d after %d"
                               % (name, value, last[name]), node=node.name)
        last_map[node.name] = current
