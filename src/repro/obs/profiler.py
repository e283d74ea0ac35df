"""The one per-instruction cost table, layered on the trace bus.

The :class:`Profiler` is a trace-bus sink and the only accumulator of
the retired-instruction stream.  It keeps one :class:`Cost` row per
*site* -- ``(node, pc, handler, mnemonic)`` -- holding count, energy,
time and instruction class, and one per ``(node, handler)`` holding
invocation counts and dispatch latency.  Every other table is a
:meth:`Profiler.rollup` of those rows: per handler, per PC, per
instruction class, per node, and -- through a program's line table --
per source line and per protocol layer.  ``snap-prof`` reads it live,
the :class:`~repro.obs.energy.EnergyLedger` reads it for its line and
layer views, and :func:`repro.obs.diff.compare` folds recorded traces
into one per run.

The mnemonic is part of the site key because guest code can rewrite
itself: on the ``sti`` scenario one ``(node, pc)`` retires two different
instructions, and a key without the mnemonic would file the second
under the first one's instruction class.

Because the rows sum the same per-instruction energies the
:class:`~repro.energy.accounting.EnergyMeter` records, their totals
reconcile with the meter's instruction energy exactly (the meter's
*total* additionally includes wakeup, event-token, and idle leakage
energy, which are not per-instruction costs).
"""

from dataclasses import dataclass

#: The fields that say where a :class:`Cost` row was spent.
WHERE = ("node", "pc", "handler", "mnemonic", "instr_class")

#: Rollup key names derived from a site's source location.
LOCATION = ("function", "file", "line", "layer")


@dataclass
class Cost:
    """One row of the cost table: a site, a dispatch target, or a rollup.

    A rollup row keeps the :data:`WHERE` fields its key fixes; any other
    one is kept only when every row it merged agrees, and is ``None``
    otherwise (a pc whose code was rewritten has no single mnemonic).
    """

    node: "str | None" = None
    pc: "int | None" = None
    handler: "str | None" = None
    mnemonic: "str | None" = None
    instr_class: "str | None" = None
    count: int = 0
    energy: float = 0.0
    time: float = 0.0
    invocations: int = 0
    dispatch_latency: float = 0.0

    @property
    def instructions(self):
        return self.count

    @property
    def tag(self):
        return self.handler

    @property
    def energy_per_invocation(self):
        return self.energy / self.invocations if self.invocations else 0.0

    @property
    def instructions_per_invocation(self):
        return self.count / self.invocations if self.invocations else 0.0


class Profiler:
    """A trace-bus sink that attributes time and energy per site."""

    def __init__(self):
        #: (node, pc, handler, mnemonic) -> :class:`Cost`.
        self.sites = {}
        #: (node, handler) -> :class:`Cost` carrying invocations.
        self.dispatches = {}

    # -- the sink interface ---------------------------------------------------

    def __call__(self, event):
        kind = event.kind
        if kind == "instruction":
            self.add(event.node, event.pc, event.handler, event.mnemonic,
                     event.instr_class, event.energy, event.duration)
        elif kind == "dispatch":
            self.dispatch(event.node, event.handler, event.latency)

    def add(self, node, pc, handler, mnemonic, instr_class, energy,
            duration):
        """Charge one retired instruction to its site."""
        key = (node, pc, handler, mnemonic)
        site = self.sites.get(key)
        if site is None:
            site = self.sites[key] = Cost(node, pc, handler, mnemonic,
                                          instr_class)
        site.count += 1
        site.energy += energy
        site.time += duration

    def dispatch(self, node, handler, latency):
        """Count one handler invocation."""
        key = (node, handler)
        target = self.dispatches.get(key)
        if target is None:
            target = self.dispatches[key] = Cost(node, handler=handler)
        target.invocations += 1
        target.dispatch_latency += latency

    # -- totals ---------------------------------------------------------------

    @property
    def instructions(self):
        return sum(site.count for site in self.sites.values())

    @property
    def energy(self):
        return sum(site.energy for site in self.sites.values())

    @property
    def time(self):
        return sum(site.time for site in self.sites.values())

    # -- rollups --------------------------------------------------------------

    def rollup(self, key, locate=None):
        """Sum the table into one :class:`Cost` row per distinct *key*.

        *key* is a tuple of :data:`WHERE` field names and
        :data:`LOCATION` names; the latter need *locate*:
        ``locate(node, pc)`` returns the site's ``(function, file,
        line)``, and ``layer`` is the netstack layer of that function,
        else of the handler.
        Invocation counts join only keys drawn from ``node`` and
        ``handler``.  Returns ``{key values: Cost}`` in first-seen order.
        """
        rows = list(self.sites.values())
        if set(key) <= {"node", "handler"}:
            rows.extend(self.dispatches.values())
        located = any(name in LOCATION for name in key)
        if located:
            from repro.netstack.layout import function_layer
        table = {}
        for row in rows:
            where = {name: getattr(row, name) for name in WHERE}
            if located:
                function, file, line = locate(row.node, row.pc)
                where.update(function=function, file=file, line=line,
                             layer=function_layer(function, row.handler))
            group = tuple(where[name] for name in key)
            total = table.get(group)
            if total is None:
                total = table[group] = Cost(
                    **{name: where[name] for name in WHERE})
            else:
                for name in WHERE:
                    if getattr(total, name) != where[name]:
                        setattr(total, name, None)
            total.count += row.count
            total.energy += row.energy
            total.time += row.time
            total.invocations += row.invocations
            total.dispatch_latency += row.dispatch_latency
        return table

    # -- queries --------------------------------------------------------------

    def hotspots(self, top=10):
        """The *top* ``(node, pc)`` rows by energy, hottest first."""
        spots = sorted(self.rollup(("node", "pc")).values(),
                       key=lambda s: -s.energy)
        return spots[:top]

    def handler_profiles(self):
        """``(node, handler)`` rows sorted by total energy, hottest
        first."""
        return sorted(self.rollup(("node", "handler")).values(),
                      key=lambda h: -h.energy)

    def reconcile(self, meter):
        """Compare this profile against an :class:`EnergyMeter`.

        Returns ``(profiled_energy, meter_instruction_energy)`` -- the
        meter's total minus its non-instruction costs (wakeup, event
        tokens, idle leakage).  The two agree to float tolerance when the
        profiler observed the whole run.
        """
        meter_instruction_energy = (meter.total_energy
                                    - meter.wakeup_energy
                                    - meter.event_token_energy
                                    - meter.idle_energy)
        return self.energy, meter_instruction_energy

    # -- reporting ------------------------------------------------------------

    def report(self, top=10, program=None):
        """A human-readable profile: handlers, then PC hot spots.

        With *program* (a linked :class:`~repro.asm.Program` carrying a
        line table), each hot PC is annotated with its source location.
        """
        lines = ["profile: %d instructions, %.3f nJ, %.6f s busy"
                 % (self.instructions, self.energy * 1e9, self.time)]
        lines.append("-- handlers (by energy) --")
        for handler in self.handler_profiles():
            lines.append(
                "  %-10s %-12s %6d runs %8d ins %10.3f nJ %10.6f s"
                % (handler.node, handler.tag, handler.invocations,
                   handler.count, handler.energy * 1e9, handler.time))
        spots = self.hotspots(top)
        if spots:
            lines.append("-- hot PCs (top %d by energy) --" % len(spots))
            for spot in spots:
                where = ""
                if program is not None:
                    loc = program.lookup(spot.pc)
                    if loc.file is not None or loc.function is not None:
                        where = "  %s" % loc
                lines.append(
                    "  %-10s %04x %-18s %8d hits %10.3f nJ %10.6f s%s"
                    % (spot.node, spot.pc, spot.mnemonic or "(rewritten)",
                       spot.count, spot.energy * 1e9, spot.time, where))
        return "\n".join(lines)
