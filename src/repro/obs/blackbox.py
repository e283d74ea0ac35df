"""Always-on flight recorder and the crash-capture facade.

Hardware sensor nodes ship with a tiny "black box": a bounded trace of
the last things the processor did, cheap enough to leave enabled in the
field.  This module reproduces that for the simulator:

* :class:`FlightRecorder` -- per-node ring buffers of the last N retired
  instructions (pc, decoded instruction, handler tag, energy, written
  register) plus a shared ring of recent system events (dispatches,
  sleeps, wakeups, event-queue inserts/drops, coprocessor commands,
  radio words).  Fed by the :class:`~repro.obs.Observability` hook
  funnel, including the fast-path burst loop; costs nothing while a
  node sleeps because no hooks fire.
* :class:`Blackbox` -- bundles an observability context (with the
  recorder enabled), a :class:`~repro.obs.watchdog.Watchdog`, and the
  crash-bundle writer: ``run()`` drives any target (processor, node, or
  network simulator) and, on a guest fault, invariant violation, or
  host exception escaping the kernel, writes a post-mortem bundle (see
  :mod:`repro.obs.postmortem`) before re-raising.

Recording never mutates simulation state -- registers and memories are
read through their counter-free ``peek`` paths -- so meter digests are
bit-identical with the recorder enabled (``tests/test_obs_budget.py``).
"""

import sys
from collections import deque

from repro.obs.context import Observability
from repro.obs.postmortem import build_crash_bundle, write_bundle
from repro.obs.watchdog import Watchdog

#: Default ring depths: enough tail to see the faulting handler's whole
#: body without holding more than a few KB per node.
DEFAULT_INSTRUCTION_LIMIT = 64
DEFAULT_EVENT_LIMIT = 64


def _event_time(event):
    return event[0]


class FlightRecorder:
    """Bounded rings of recent instructions and system events."""

    def __init__(self, instruction_limit=DEFAULT_INSTRUCTION_LIMIT,
                 event_limit=DEFAULT_EVENT_LIMIT):
        if instruction_limit <= 0 or event_limit <= 0:
            raise ValueError("flight-recorder ring limits must be positive")
        self.instruction_limit = instruction_limit
        self.event_limit = event_limit
        #: node name -> deque of (time, pc, instruction, handler, energy,
        #: rd, rd_value) tuples, newest last.
        self._instructions = {}
        #: Shared ring of (time, node, kind, detail) tuples, newest last.
        self._events = deque(maxlen=event_limit)
        #: node name -> processor, so instruction records can capture the
        #: value the instruction just wrote to its destination register.
        self._processors = {}

    # -- feeding (called through the Observability hook funnel) ---------------

    def register_processor(self, processor):
        """Remember a processor so its register file can be peeked."""
        self._processors[processor.name] = processor

    def record_instruction(self, node, time, pc, instruction, handler,
                           energy):
        """Append one retired instruction to *node*'s ring.

        Called after the executor ran, so peeking the destination
        register yields the value the instruction produced.
        """
        ring = self._instructions.get(node)
        if ring is None:
            ring = self._instructions[node] = deque(
                maxlen=self.instruction_limit)
        rd = rd_value = None
        spec = instruction.spec
        if spec.writes_rd:
            rd = instruction.rd
            if rd is not None and rd < 15:
                processor = self._processors.get(node)
                if processor is not None:
                    rd_value = processor.regs.peek(rd)
        ring.append((time, pc, instruction, handler, energy, rd, rd_value))

    def record_event(self, kind, node, time, detail=None):
        """Append one system event to the shared event ring.

        Nodes append in the order the simulator runs them, which a
        fast-engine core running ahead of the network makes differ
        from time order; :meth:`event_tail` sorts."""
        self._events.append((time, node, kind, detail))

    # -- inspection ------------------------------------------------------------

    @property
    def nodes(self):
        """Names of every node with recorded instructions."""
        return sorted(self._instructions)

    def instruction_tail(self, node):
        """The recorded instruction tuples for *node*, oldest first."""
        return list(self._instructions.get(node, ()))

    def event_tail(self):
        """The recorded event tuples, oldest first (by simulated time;
        events at one time keep the order they were recorded in)."""
        return sorted(self._events, key=_event_time)

    def entry_count(self):
        """Total entries currently held across every ring."""
        return (sum(len(ring) for ring in self._instructions.values())
                + len(self._events))

    def max_entries(self, node_count=None):
        """The hard entry ceiling for *node_count* nodes (defaults to the
        nodes seen so far)."""
        if node_count is None:
            node_count = max(1, len(self._instructions))
        return node_count * self.instruction_limit + self.event_limit

    def approx_size_bytes(self):
        """Rough host-memory footprint of the ring contents.

        Sums ``sys.getsizeof`` over the entry tuples; the budget property
        test bounds this to show the recorder cannot grow without limit.
        """
        total = sum(sys.getsizeof(entry)
                    for ring in self._instructions.values()
                    for entry in ring)
        total += sum(sys.getsizeof(entry) for entry in self._events)
        return total

    def snapshot(self, node=None, programs=None):
        """A JSON-able dict of the rings (for bundles and debugging).

        *programs* optionally maps node name -> linked
        :class:`~repro.asm.Program`; when a program is known, each
        instruction record gains its symbolicated source location.
        """
        programs = programs or {}
        names = [node] if node is not None else self.nodes
        instructions = {}
        for name in names:
            program = programs.get(name)
            instructions[name] = [
                self._describe_instruction(entry, program)
                for entry in self._instructions.get(name, ())]
        events = [{"time": time, "node": name, "kind": kind,
                   "detail": detail}
                  for time, name, kind, detail in self.event_tail()]
        return {
            "instruction_limit": self.instruction_limit,
            "event_limit": self.event_limit,
            "instructions": instructions,
            "events": events,
        }

    @staticmethod
    def _describe_instruction(entry, program):
        time, pc, instruction, handler, energy, rd, rd_value = entry
        record = {
            "time": time,
            "pc": pc,
            "mnemonic": instruction.text(),
            "class": instruction.spec.instr_class.value,
            "handler": handler,
            "energy": energy,
        }
        if rd is not None:
            record["rd"] = rd
            record["rd_value"] = rd_value
        if program is not None:
            loc = program.lookup(pc)
            record["source"] = {"function": loc.function, "file": loc.file,
                                "line": loc.line}
        return record


class Blackbox:
    """Flight recorder + watchdog + crash bundle, as one facade.

    Typical use::

        box = Blackbox()
        box.observe(node)           # or processor, or NetworkSimulator
        box.run(node, until=1.0)    # writes a bundle if anything faults

    ``observe`` may be called once per target (several nodes of one
    network are covered by observing the simulator itself).  ``run``
    arms the watchdog, drives the target, and on any escaping
    exception -- guest fault, :class:`InvariantViolation`, or a host
    bug inside the kernel -- builds a crash bundle, writes it under
    *bundle_dir* (unless ``None``), attaches it to the exception as
    ``crash_bundle`` / ``crash_bundle_paths``, and re-raises.
    """

    def __init__(self, obs=None, instruction_limit=DEFAULT_INSTRUCTION_LIMIT,
                 event_limit=DEFAULT_EVENT_LIMIT, watchdog_interval=1e-3,
                 invariants=None, bundle_dir="crash-bundles",
                 checkpoint_every=None):
        if obs is None:
            obs = Observability(
                flight=FlightRecorder(instruction_limit, event_limit))
        elif obs.flight is None:
            obs.flight = FlightRecorder(instruction_limit, event_limit)
        self.obs = obs
        self.recorder = obs.flight
        self.watchdog = Watchdog(interval=watchdog_interval,
                                 invariants=invariants,
                                 recorder=self.recorder)
        self.bundle_dir = bundle_dir
        #: node name -> linked Program, for symbolication.
        self.programs = {}
        self.last_bundle = None
        self.last_bundle_paths = None
        #: With *checkpoint_every* set (simulated seconds), the blackbox
        #: snapshots the observed node/network on that period via
        #: :mod:`repro.sim.checkpoint` and embeds the most recent
        #: snapshot in any crash bundle it writes -- ``snap-flight
        #: replay-tail --replay`` then reproduces the crash by re-running
        #: only the tail from that snapshot instead of from t=0.
        self.checkpoint_every = checkpoint_every
        self.last_checkpoint = None
        self._checkpoint_target = None
        self._checkpoint_armed = False

    def observe(self, target, program=None):
        """Instrument *target* and register it with the watchdog.

        *program* overrides the symbolication program for the target's
        processor(s); by default each processor's own loaded
        ``program`` attribute is used.
        """
        from repro.network.simulator import NetworkSimulator
        from repro.node.node import SensorNode

        self.obs.observe(target)
        for processor in self.watchdog.watch(target):
            loaded = program if program is not None \
                else getattr(processor, "program", None)
            if loaded is not None:
                self.programs[processor.name] = loaded
        if not self.watchdog.armed:
            self.watchdog.start()
        if isinstance(target, (NetworkSimulator, SensorNode)):
            self._checkpoint_target = target
            if self.checkpoint_every and not self._checkpoint_armed:
                self._checkpoint_armed = True
                target.kernel.schedule(self.checkpoint_every,
                                       self._checkpoint_tick)
        return target

    def _checkpoint_tick(self):
        """Periodic checkpoint of the observed target (kernel callback).

        Uses the ``unknown="skip"`` capture policy: host-side hooks on
        the heap (this tick itself, watchdog ticks, failure-injection
        lambdas in tests) are recorded as skipped, not fatal.
        """
        from repro.sim.checkpoint import capture

        self.last_checkpoint = capture(self._checkpoint_target,
                                       unknown="skip")
        self._checkpoint_target.kernel.schedule(self.checkpoint_every,
                                                self._checkpoint_tick)

    def run(self, target, until=None, max_events=None):
        """Drive ``target.run``, capturing a crash bundle on any fault."""
        if not self.watchdog.armed:
            self.watchdog.start()
        try:
            return target.run(until=until, max_events=max_events)
        except Exception as error:
            self.capture(error)
            error.crash_bundle = self.last_bundle
            error.crash_bundle_paths = self.last_bundle_paths
            raise

    def capture(self, error=None, reason=None):
        """Build (and, if *bundle_dir* is set, write) a crash bundle from
        the current simulation state.  Returns the bundle dict."""
        bundle = build_crash_bundle(
            error=error, reason=reason, kernel=self.watchdog.kernel,
            processors=self.watchdog.processors, recorder=self.recorder,
            programs=self.programs, obs=self.obs,
            checkpoint=self.last_checkpoint.data
            if self.last_checkpoint is not None else None)
        self.last_bundle = bundle
        self.last_bundle_paths = None
        if self.bundle_dir is not None:
            self.last_bundle_paths = write_bundle(bundle, self.bundle_dir)
            bundle["paths"] = [str(path) for path in self.last_bundle_paths]
        return bundle
