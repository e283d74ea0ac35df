"""Differential observability: divergence localization and cross-run
comparative analysis (``snap-diff``).

Every correctness gate in this repo ultimately asserts "two runs are
bit-identical" -- fast path vs reference engine (PR 4), resumed vs
uninterrupted (PR 6), armed vs unarmed observability (PR 7).  When that
assertion fails, a boolean is a terrible diagnostic.  This module turns
the same machinery into an analysis engine with two modes:

**First-divergence localization.**  :func:`align` walks two typed trace
streams event-by-event and returns the first mismatching record as a
:class:`Divergence` -- which field differed, the event times on both
sides, the owning node and handler, the program counter, and (when the
run carries a linked :class:`~repro.asm.Program`) the symbolicated
source location via ``Program.lookup``, plus a flight-recorder-style
tail of the last events leading up to the mismatch on both sides.  When
both runs support checkpointing, :class:`Bisector` first narrows the
divergence to a time window by binary-searching
:func:`~repro.sim.checkpoint.capture` snapshots (digest comparison per
probe, no observability overhead), then re-runs only the tail with the
trace bus attached to localize exactly.

**Cross-run comparison.**  Pointed at two *intentionally different*
runs (two supply voltages, two engines, two protocol variants),
:func:`compare` produces a structured report -- per-handler and per-PC
energy/time deltas, per-node instruction-class deltas, packet-journey
flow diffs (delivery, drop reasons, latency changes per flow), and
metrics-registry diffs -- rendered as JSON (schema ``repro.obs.diff/1``)
or Markdown.

Alignment modes
===============

* ``full`` -- records must match on every field, floats included.  Two
  runs of the same scenario under the bit-identity contract align with
  zero divergence; the first energy/timing difference is localized to
  the instruction that caused it.
* ``stable`` -- records are first reduced by
  :func:`repro.obs.project.project_event` to their float-free golden
  projection, so runs that legitimately differ in energy/timing (e.g.
  two voltages) align on structure and ordering alone.

Runs come from three places (:class:`RunCapture`): live simulators
(:func:`capture_run`), recorded JSONL trace streams
(:func:`load_trace`), or checkpoint files
(:func:`capture_from_checkpoint`).  The ``snap-diff`` CLI
(:mod:`repro.tools.snap_diff`) fronts all of this.
"""

import json
from dataclasses import dataclass, replace

from repro.obs.bus import MemorySink
from repro.obs.profiler import Profiler
from repro.obs.project import project_event

SCHEMA = "repro.obs.diff/1"

#: Default number of pre-divergence records kept per side in a
#: :class:`Divergence` tail (the flight-recorder convention).
DEFAULT_TAIL = 16

#: Default cap on per-PC delta rows in a comparison report.
DEFAULT_TOP = 20

ALIGN_MODES = ("full", "stable")


class DiffError(Exception):
    """A snap-diff input could not be understood or compared."""


# -- run captures -------------------------------------------------------------


@dataclass
class RunCapture:
    """One run, reduced to what the diff engine needs.

    *events* are plain ``to_record()`` dicts at full float precision;
    *digest* is the :func:`~repro.sim.checkpoint.network_digest` (live
    and checkpoint runs only); *programs* maps processor names to linked
    :class:`~repro.asm.Program` objects for symbolication; *metrics* is
    the observability registry snapshot.
    """

    label: str
    kind: str                 # "live" | "trace" | "checkpoint"
    events: list
    time_s: "float | None" = None
    digest: "dict | None" = None
    metrics: "dict | None" = None
    programs: "dict | None" = None

    def describe(self):
        return {"label": self.label, "kind": self.kind,
                "events": len(self.events), "time_s": self.time_s,
                "nodes": sorted({record.get("node")
                                 for record in self.events
                                 if record.get("node")})}


def _sim_programs(sim):
    from repro.node.node import SensorNode

    nodes = [sim] if isinstance(sim, SensorNode) else sim.nodes.values()
    return {node.processor.name: node.processor.program
            for node in nodes
            if getattr(node.processor, "program", None) is not None}


def capture_run(sim, horizon, label="run", journeys=True):
    """Drive a live *sim* to *horizon* under a fresh observability
    context and return its :class:`RunCapture`.

    The simulation must not already carry an observability context;
    attaching is bit-identity-preserving, so the captured digest equals
    an uninstrumented run's.
    """
    from repro.obs.context import Observability
    from repro.scenarios import run_to
    from repro.sim.checkpoint import network_digest

    obs = Observability(journeys=journeys)
    sink = obs.bus.attach(MemorySink())
    sim.attach_observability(obs)
    run_to(sim, horizon)
    if obs.journeys is not None:
        obs.journeys.flush()
    return RunCapture(
        label=label, kind="live", events=sink.records(),
        time_s=sim.kernel.now, digest=network_digest(sim),
        metrics=obs.metrics.snapshot(), programs=_sim_programs(sim))


def load_trace(path, label=None):
    """Load a recorded JSONL trace stream as a :class:`RunCapture`.

    A line that is not a JSON object, or an instruction/dispatch record
    without its required fields, raises :class:`DiffError` naming the
    file and line.
    """
    events = []
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as error:
                    raise DiffError("%s:%d: not JSON (%s)"
                                    % (path, number, error))
                if not isinstance(record, dict):
                    raise DiffError("%s:%d: not a JSON object"
                                    % (path, number))
                missing = _missing_fields(record)
                if missing:
                    raise DiffError("%s:%d: %s record has no %s"
                                    % (path, number, record["type"],
                                       ", ".join(missing)))
                events.append(record)
    except OSError as error:
        raise DiffError(str(error))
    time_s = None
    for record in reversed(events):
        if isinstance(record.get("time"), (int, float)):
            time_s = record["time"]
            break
    return RunCapture(label=label or path, kind="trace", events=events,
                      time_s=time_s)


def capture_from_checkpoint(source, horizon, label=None, journeys=True):
    """Restore a checkpoint (path, dict, or
    :class:`~repro.sim.checkpoint.Checkpoint`), re-run it to *horizon*
    under observability, and return the tail's :class:`RunCapture`."""
    from repro.sim.checkpoint import Checkpoint, restore

    if isinstance(source, str):
        checkpoint = Checkpoint.load(source)
        label = label or source
    elif isinstance(source, dict):
        checkpoint = Checkpoint(source)
    else:
        checkpoint = source
    if horizon is None or horizon <= checkpoint.time_s:
        raise DiffError(
            "checkpoint at t=%.6f s needs a later --until horizon to "
            "replay (got %r)" % (checkpoint.time_s, horizon))
    sim = restore(checkpoint)
    capture = capture_run(sim, horizon, label=label or "checkpoint",
                          journeys=journeys)
    return replace(capture, kind="checkpoint")


# -- deep dict diffs ----------------------------------------------------------


def deep_diff_paths(left, right, prefix=""):
    """Dotted paths at which two nested dicts differ, with both values.

    The shared implementation behind checkpoint digest diffs and the
    metrics/registry diff in comparison reports.
    """
    diffs = []
    if isinstance(left, dict) and isinstance(right, dict):
        for key in sorted(set(left) | set(right)):
            a, b = left.get(key), right.get(key)
            if a != b:
                diffs.extend(deep_diff_paths(a, b, "%s%s." % (prefix, key)))
        return diffs
    diffs.append("%s: %r != %r" % (prefix.rstrip("."), left, right))
    return diffs


# -- stream alignment and localization ----------------------------------------


@dataclass
class Divergence:
    """The first point at which two aligned streams disagree."""

    index: int
    mode: str
    kind: str                       # "event" | "length" | "digest_only"
    record_a: "dict | None"
    record_b: "dict | None"
    fields: list                    # differing field names ("event" kind)
    time_a: "float | None" = None
    time_b: "float | None" = None
    node: "str | None" = None
    handler: "str | None" = None
    pc: "int | None" = None
    mnemonic: "str | None" = None
    location: "dict | None" = None  # symbolicated {function, file, line}
    window: "dict | None" = None    # bisected time window, when known
    digest_paths: "list | None" = None
    tail_a: "list | None" = None
    tail_b: "list | None" = None

    def to_dict(self):
        return {
            "index": self.index, "mode": self.mode, "kind": self.kind,
            "record_a": self.record_a, "record_b": self.record_b,
            "fields": self.fields, "time_a": self.time_a,
            "time_b": self.time_b, "node": self.node,
            "handler": self.handler, "pc": self.pc,
            "mnemonic": self.mnemonic, "location": self.location,
            "window": self.window, "digest_paths": self.digest_paths,
            "tail_a": self.tail_a, "tail_b": self.tail_b,
        }

    def describe(self):
        """One-paragraph human rendering of the localization."""
        if self.kind == "digest_only":
            lines = ["streams aligned but state digests differ:"]
            lines.extend("  " + path for path in (self.digest_paths or [])[:10])
            return "\n".join(lines)
        where = "event #%d" % self.index
        if self.time_a is not None:
            where += " at t=%.9f s" % self.time_a
        if self.window:
            where += " (bisected window %s..%.9f s)" % (
                "%.9f" % self.window["t_lo"]
                if self.window.get("t_lo") is not None else "start",
                self.window["t_hi"])
        lines = ["first divergence: %s" % where]
        if self.kind == "length":
            short = "a" if self.record_a is None else "b"
            lines.append("  run %s ended early (%d events)"
                         % (short, self.index))
        context = []
        if self.node:
            context.append("node=%s" % self.node)
        if self.handler:
            context.append("handler=%s" % self.handler)
        if self.pc is not None:
            context.append("pc=0x%04x" % self.pc)
        if self.mnemonic:
            context.append("insn=%r" % self.mnemonic)
        if context:
            lines.append("  " + "  ".join(context))
        if self.location and (self.location.get("function")
                              or self.location.get("file")):
            loc = self.location
            lines.append("  source: %s at %s:%s"
                         % (loc.get("function") or "?",
                            loc.get("file") or "?", loc.get("line") or "?"))
        for name in self.fields or ():
            lines.append("  %s: %r != %r"
                         % (name,
                            (self.record_a or {}).get(name),
                            (self.record_b or {}).get(name)))
        return "\n".join(lines)


def _record_fields_diff(record_a, record_b):
    fields = sorted(set(record_a) | set(record_b))
    return [name for name in fields
            if record_a.get(name) != record_b.get(name)]


def align(events_a, events_b, mode="full"):
    """Walk two streams in lockstep; return the first
    :class:`Divergence`, or ``None`` when they agree end to end.

    ``full`` compares whole records (floats included); ``stable``
    compares the float-free golden projection.
    """
    if mode not in ALIGN_MODES:
        raise ValueError("mode must be one of %s, not %r"
                         % ("/".join(ALIGN_MODES), mode))
    view = (lambda record: record) if mode == "full" else project_event
    count = min(len(events_a), len(events_b))
    for index in range(count):
        record_a, record_b = events_a[index], events_b[index]
        if view(record_a) != view(record_b):
            return Divergence(
                index=index, mode=mode, kind="event",
                record_a=record_a, record_b=record_b,
                fields=_record_fields_diff(view(record_a), view(record_b)),
                time_a=record_a.get("time"), time_b=record_b.get("time"))
    if len(events_a) != len(events_b):
        longer = events_a if len(events_a) > len(events_b) else events_b
        extra = longer[count]
        return Divergence(
            index=count, mode=mode, kind="length",
            record_a=extra if longer is events_a else None,
            record_b=extra if longer is events_b else None,
            fields=[], time_a=extra.get("time"), time_b=extra.get("time"))
    return None


def _instruction_context(events, index):
    """The nearest instruction record at or before *index*: the
    (node, handler, pc, mnemonic) the divergence happened inside."""
    for position in range(min(index, len(events) - 1), -1, -1):
        record = events[position]
        if record.get("type") == "instruction":
            return (record.get("node"), record.get("handler"),
                    record.get("pc"), record.get("mnemonic"))
    return None, None, None, None


def _symbolicate(programs, node, pc):
    if not programs or node is None or pc is None:
        return None
    program = programs.get(node)
    if program is None:
        return None
    loc = program.lookup(pc)
    return {"function": loc.function, "file": loc.file, "line": loc.line}


def localize(divergence, run_a, run_b, tail=DEFAULT_TAIL):
    """Enrich an :func:`align` divergence with execution context:
    owning node/handler/pc (from the divergent record itself when it is
    an instruction, else the nearest preceding one), the symbolicated
    source location, and the last *tail* records from both sides."""
    if divergence is None:
        return None
    record = divergence.record_a or divergence.record_b or {}
    if record.get("type") == "instruction":
        divergence.node = record.get("node")
        divergence.handler = record.get("handler")
        divergence.pc = record.get("pc")
        divergence.mnemonic = record.get("mnemonic")
    else:
        events = run_a.events if divergence.record_a is not None \
            else run_b.events
        node, handler, pc, mnemonic = _instruction_context(
            events, divergence.index)
        divergence.node = record.get("node", node) if record else node
        divergence.handler = handler
        divergence.pc = pc
        divergence.mnemonic = mnemonic
    programs = dict(run_b.programs or {})
    programs.update(run_a.programs or {})
    divergence.location = _symbolicate(programs, divergence.node,
                                       divergence.pc)
    if tail:
        lo = max(0, divergence.index - tail + 1)
        hi = divergence.index + 1
        divergence.tail_a = run_a.events[lo:hi]
        divergence.tail_b = run_b.events[lo:hi]
    return divergence


def first_divergence(run_a, run_b, mode="full", tail=DEFAULT_TAIL):
    """The localized first divergence between two captures, or ``None``.

    Falls back to a ``digest_only`` divergence when the streams agree
    but the captured state digests do not (a meter-accumulator bug that
    never surfaced as a trace event).
    """
    divergence = localize(align(run_a.events, run_b.events, mode=mode),
                          run_a, run_b, tail=tail)
    if divergence is not None:
        return divergence
    if (mode == "full" and run_a.digest is not None
            and run_b.digest is not None and run_a.digest != run_b.digest):
        return Divergence(
            index=len(run_a.events), mode=mode, kind="digest_only",
            record_a=None, record_b=None, fields=[],
            digest_paths=deep_diff_paths(run_a.digest, run_b.digest))
    return None


# -- checkpoint bisection -----------------------------------------------------


class Bisector:
    """Pin a divergence to a time window by bisecting over checkpoints.

    *make_a* / *make_b* are builders returning ``(sim, horizon)`` with
    the simulation clock at the end of any staged prologue (the
    :mod:`repro.scenarios` builder convention).  Each probe
    restores the latest known-good checkpoint, advances to the probe
    time, captures, and compares
    :func:`~repro.sim.checkpoint.network_digest` -- no observability is
    attached during bisection, so probes are cheap and digest-exact.

    Because both runs are deterministic, digest divergence is monotone
    in time: once the states differ they stay different.  The loop
    therefore maintains the invariant *digests equal at* ``t_lo`` (or at
    the prologue end when ``t_lo`` is ``None``), *digests differ at*
    ``t_hi``, and halves the window up to *max_probes* times.
    """

    def __init__(self, make_a, make_b, max_probes=20):
        self.make_a = make_a
        self.make_b = make_b
        self.max_probes = max_probes

    def _fresh(self):
        sim_a, horizon_a = self.make_a()
        sim_b, horizon_b = self.make_b()
        return sim_a, sim_b, min(horizon_a, horizon_b)

    @staticmethod
    def _advance(checkpoint, t):
        from repro.scenarios import run_to
        from repro.sim.checkpoint import capture, network_digest, restore

        sim = restore(checkpoint)
        run_to(sim, t)
        return capture(sim, unknown="skip"), network_digest(sim)

    def bisect(self):
        """Narrow the window; returns ``None`` when the runs never
        diverge by the horizon, else ``{"t_lo", "t_hi", "probes",
        "digest_paths", "checkpoints"}`` (the checkpoints are the last
        digest-equal pair, for tail re-runs)."""
        from repro.scenarios import run_to
        from repro.sim.checkpoint import capture, network_digest

        sim_a, sim_b, horizon = self._fresh()
        start = max(sim_a.kernel.now, sim_b.kernel.now)
        ckpt_a = capture(sim_a, unknown="skip")
        ckpt_b = capture(sim_b, unknown="skip")
        run_to(sim_a, horizon)
        run_to(sim_b, horizon)
        digest_a, digest_b = network_digest(sim_a), network_digest(sim_b)
        if digest_a == digest_b:
            return None

        if network_digest(ckpt_a.restore()) != \
                network_digest(ckpt_b.restore()):
            # Diverged during the staged prologue; nothing to bisect.
            return {"t_lo": None, "t_hi": start, "probes": 0,
                    "digest_paths": deep_diff_paths(digest_a, digest_b),
                    "checkpoints": None}

        t_lo, t_hi = start, horizon
        probes = 0
        while probes < self.max_probes:
            mid = (t_lo + t_hi) / 2.0
            if not t_lo < mid < t_hi:
                break
            probes += 1
            probe_a, dig_a = self._advance(ckpt_a, mid)
            probe_b, dig_b = self._advance(ckpt_b, mid)
            if dig_a == dig_b:
                t_lo, ckpt_a, ckpt_b = mid, probe_a, probe_b
            else:
                t_hi = mid
        return {"t_lo": t_lo, "t_hi": t_hi, "probes": probes,
                "digest_paths": deep_diff_paths(digest_a, digest_b),
                "checkpoints": (ckpt_a, ckpt_b)}

    def localize(self, window=None, mode="full", tail=DEFAULT_TAIL,
                 label_a="a", label_b="b"):
        """Re-run only the bisected tail with observability attached and
        localize the first divergent record inside the window.

        Returns ``(divergence, run_a, run_b)``; the runs cover the
        window tail only, so their aggregates feed a comparison report
        scoped to where the behavior actually changed.
        """
        if window is None:
            window = self.bisect()
        if window is None:
            return None, None, None
        # Restored simulators carry raw instruction memory but not the
        # linked Program object; harvest symbolication tables from a
        # fresh build of each side.
        fresh_a, fresh_b, horizon = self._fresh()
        programs_a, programs_b = _sim_programs(fresh_a), _sim_programs(fresh_b)
        checkpoints = window.get("checkpoints")
        if checkpoints is not None:
            sim_a = checkpoints[0].restore()
            sim_b = checkpoints[1].restore()
        else:
            sim_a, sim_b = fresh_a, fresh_b
        run_a = capture_run(sim_a, horizon, label=label_a)
        run_b = capture_run(sim_b, horizon, label=label_b)
        run_a.programs = dict(programs_a, **(run_a.programs or {}))
        run_b.programs = dict(programs_b, **(run_b.programs or {}))
        divergence = first_divergence(run_a, run_b, mode=mode, tail=tail)
        if divergence is not None:
            divergence.window = {"t_lo": window["t_lo"],
                                 "t_hi": window["t_hi"],
                                 "probes": window["probes"]}
            if divergence.kind == "digest_only":
                divergence.digest_paths = window["digest_paths"]
        return divergence, run_a, run_b


# -- cross-run aggregation ----------------------------------------------------

#: The fields each record type must carry to be folded.
REQUIRED_FIELDS = {"instruction": ("node", "pc", "handler"),
                   "dispatch": ("node", "handler")}


def _missing_fields(record):
    return [name for name in REQUIRED_FIELDS.get(record.get("type"), ())
            if name not in record]


def profile_events(events, label="run"):
    """Fold instruction and dispatch records into one
    :class:`~repro.obs.profiler.Profiler`, through the same per-record
    code the live sink runs.  A record without its required fields
    raises :class:`DiffError` naming *label* and the record number."""
    profiler = Profiler()
    for number, record in enumerate(events, 1):
        kind = record.get("type")
        if kind not in REQUIRED_FIELDS:
            continue
        missing = _missing_fields(record)
        if missing:
            raise DiffError("%s: record %d: %s record has no %s"
                            % (label, number, kind, ", ".join(missing)))
        if kind == "instruction":
            profiler.add(record["node"], record["pc"], record["handler"],
                         record.get("mnemonic", ""),
                         record.get("instr_class") or "?",
                         record.get("energy") or 0.0,
                         record.get("duration") or 0.0)
        else:
            profiler.dispatch(record["node"], record["handler"],
                              record.get("latency") or 0.0)
    return profiler


def flows_from_events(events):
    """Reassemble journey flows from span records.

    Works identically for live captures and recorded traces; each flow
    is keyed by the packet identity ``kind/src->dst/seq`` (the journey
    tracker's hop-invariant key rendered as text).
    """
    flows = {}
    for record in events:
        if record.get("type") != "span":
            continue
        journey = record["journey"]
        flow = flows.get(journey)
        if flow is None:
            flow = flows[journey] = {
                "key": "%s/%s->%s/seq%s" % (record["pkt"], record["src"],
                                            record["dst"], record["seq"]),
                "pkt": record["pkt"], "src": record["src"],
                "dst": record["dst"], "seq": record["seq"],
                "spans": 0, "hops": 0, "delivered": False,
                "drop_reasons": [], "t_start": record["time"],
                "latency_s": None, "energy_j": 0.0,
            }
        flow["spans"] += 1
        flow["energy_j"] += record.get("energy") or 0.0
        op = record.get("op")
        if op in ("send", "forward"):
            flow["hops"] += 1
        elif op == "deliver":
            flow["delivered"] = True
            flow["latency_s"] = record["time"] - flow["t_start"]
        elif op == "drop" and record.get("reason"):
            flow["drop_reasons"].append(record["reason"])
    # Journeys with the same packet identity (retries) stay distinct per
    # journey id but share a key; suffix duplicates for stable keying.
    seen = {}
    keyed = {}
    for journey in sorted(flows):
        flow = flows[journey]
        key = flow["key"]
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        if occurrence:
            key = "%s#%d" % (key, occurrence)
        keyed[key] = flow
    return keyed


# -- the comparison report ----------------------------------------------------


#: The comparison tables, one rollup of each run's cost table apiece:
#: ``(report table, rollup key, delta fields, carried fields)``.  Every
#: table but ``nodes`` is ranked by |delta energy|.
TABLES = (
    ("nodes", ("node",), ("instructions", "energy", "time"), ()),
    ("handlers", ("node", "handler"),
     ("instructions", "energy", "time", "invocations"), ()),
    ("pcs", ("node", "pc"), ("count", "energy", "time"), ("mnemonic",)),
    ("classes", ("node", "instr_class"), ("count", "energy"), ()),
    ("layers", ("node", "layer"), ("count", "energy", "time"), ()),
    ("lines", ("node", "function", "file", "line"),
     ("count", "energy", "time"), ()),
)

#: Tables capped at ``top`` rows -> the report key of their full count.
CAPPED = {"pcs": "pc_rows_total", "lines": "line_rows_total"}


def _journey_diff(events_a, events_b):
    flows_a = flows_from_events(events_a)
    flows_b = flows_from_events(events_b)
    flows = []
    for key in sorted(set(flows_a) | set(flows_b)):
        a, b = flows_a.get(key), flows_b.get(key)
        changed = []
        if (a is None) != (b is None):
            changed.append("missing_in_" + ("a" if a is None else "b"))
        else:
            if a["delivered"] != b["delivered"]:
                changed.append("delivered")
            if a["drop_reasons"] != b["drop_reasons"]:
                changed.append("drop_reasons")
            if a["hops"] != b["hops"]:
                changed.append("hops")
            if (a["latency_s"] is not None and b["latency_s"] is not None
                    and a["latency_s"] != b["latency_s"]):
                changed.append("latency")
            if a["energy_j"] != b["energy_j"]:
                changed.append("energy")
        flows.append({"key": key, "a": a, "b": b, "changed": changed})

    def totals(flows_table):
        delivered = sum(1 for flow in flows_table.values()
                        if flow["delivered"])
        dropped = sum(1 for flow in flows_table.values()
                      if flow["drop_reasons"] and not flow["delivered"])
        return {"flows": len(flows_table), "delivered": delivered,
                "dropped": dropped,
                "in_flight": len(flows_table) - delivered - dropped}

    return {"flows": flows,
            "totals": {"a": totals(flows_a), "b": totals(flows_b)},
            "changed": sum(1 for flow in flows if flow["changed"])}


def _metrics_diff(metrics_a, metrics_b):
    if metrics_a is None or metrics_b is None:
        return None
    added = sorted(set(metrics_b) - set(metrics_a))
    removed = sorted(set(metrics_a) - set(metrics_b))
    changed = {}
    for name in sorted(set(metrics_a) & set(metrics_b)):
        if metrics_a[name] != metrics_b[name]:
            changed[name] = {"a": metrics_a[name], "b": metrics_b[name]}
    return {"added": added, "removed": removed, "changed": changed}


def compare(run_a, run_b, mode="full", tail=DEFAULT_TAIL, top=DEFAULT_TOP):
    """The full structured comparison of two :class:`RunCapture` s.

    Returns the ``repro.obs.diff/1`` report dict: localized first
    divergence (or ``None``), per-handler/per-PC/per-class deltas,
    per-node totals, journey flow diffs, and metrics-registry diffs.
    """
    divergence = first_divergence(run_a, run_b, mode=mode, tail=tail)
    report = {
        "schema": SCHEMA,
        "mode": mode,
        "runs": {"a": run_a.describe(), "b": run_b.describe()},
        "identical": divergence is None,
        "divergence": divergence.to_dict() if divergence else None,
    }

    programs = dict(run_b.programs or {})
    programs.update(run_a.programs or {})

    def locate(node, pc):
        location = _symbolicate(programs, node, pc) or {}
        return (location.get("function") or ("0x%04x" % (pc or 0)),
                location.get("file") or "", location.get("line") or 0)

    profiles = (profile_events(run_a.events, run_a.label),
                profile_events(run_b.events, run_b.label))
    for table, key, fields, carried in TABLES:
        side_a, side_b = (profile.rollup(key, locate) for profile in profiles)
        rows = []
        for group in sorted(set(side_a) | set(side_b), key=str):
            a, b = (None if cost is None else
                    {name: getattr(cost, name) for name in fields + carried}
                    for cost in (side_a.get(group), side_b.get(group)))
            row = {"a": a, "b": b}
            for name in fields:
                row["d_" + name] = (b or {}).get(name, 0) \
                    - (a or {}).get(name, 0)
            for name in carried:
                row[name] = (a if a is not None else b)[name]
            row.update(zip(key, group))
            if "pc" in key:
                row["location"] = _symbolicate(programs, *group)
            rows.append(row)
        if table != "nodes":
            rows.sort(key=lambda row: -abs(row["d_energy"]))
        if table in CAPPED:
            report[CAPPED[table]] = len(rows)
            if top:
                rows = rows[:top]
        report[table] = rows
    report["journeys"] = _journey_diff(run_a.events, run_b.events)
    report["metrics"] = _metrics_diff(run_a.metrics, run_b.metrics)
    return report


# -- Markdown rendering -------------------------------------------------------


def render_markdown(report, top=DEFAULT_TOP):
    """Render a comparison report as Markdown (see
    :func:`repro.report.render.markdown_table`)."""
    from repro.report.render import format_signed, markdown_table

    runs = report["runs"]
    lines = ["# snap-diff: %s vs %s" % (runs["a"]["label"],
                                        runs["b"]["label"]),
             "",
             "- schema: `%s`, alignment mode: `%s`" % (report["schema"],
                                                       report["mode"]),
             "- run a: %d events, %s nodes" % (runs["a"]["events"],
                                               len(runs["a"]["nodes"])),
             "- run b: %d events, %s nodes" % (runs["b"]["events"],
                                               len(runs["b"]["nodes"])),
             ""]
    if report["identical"]:
        lines.append("**Verdict: no divergence** -- the streams align "
                     "end to end%s." % (
                         " and state digests match"
                         if report["mode"] == "full" else ""))
    else:
        divergence = report["divergence"]
        lines.append("**Verdict: diverged.**")
        lines.append("")
        lines.append("```")
        lines.append(Divergence(**divergence).describe())
        lines.append("```")
    lines.append("")

    rows = [(row["node"], row["handler"],
             format_signed(row["d_energy"] * 1e9, "nJ"),
             format_signed(row["d_time"] * 1e3, "ms"),
             format_signed(row["d_instructions"]),
             format_signed(row["d_invocations"]))
            for row in report["handlers"][:top]
            if any((row["d_energy"], row["d_time"], row["d_instructions"],
                    row["d_invocations"]))]
    if rows:
        lines.append("## Per-handler deltas (b - a)")
        lines.append(markdown_table(
            ("node", "handler", "energy", "time", "instructions",
             "invocations"), rows))

    rows = []
    for row in report["pcs"][:top]:
        if not (row["d_energy"] or row["d_count"] or row["d_time"]):
            continue
        where = ""
        loc = row.get("location") or {}
        if loc.get("function") or loc.get("file"):
            where = "%s %s:%s" % (loc.get("function") or "?",
                                  loc.get("file") or "?",
                                  loc.get("line") or "?")
        rows.append((row["node"], "0x%04x" % row["pc"],
                     row.get("mnemonic") or "", where,
                     format_signed(row["d_energy"] * 1e9, "nJ"),
                     format_signed(row["d_count"])))
    if rows:
        lines.append("## Per-PC deltas (b - a, top %d of %d)"
                     % (len(rows), report["pc_rows_total"]))
        lines.append(markdown_table(
            ("node", "pc", "insn", "source", "energy", "count"), rows))

    rows = [(row["node"], row["layer"],
             format_signed(row["d_energy"] * 1e9, "nJ"),
             format_signed(row["d_time"] * 1e3, "ms"),
             format_signed(row["d_count"]))
            for row in report.get("layers") or ()
            if any((row["d_energy"], row["d_time"], row["d_count"]))]
    if rows:
        lines.append("## Per-layer energy deltas (b - a)")
        lines.append(markdown_table(
            ("node", "layer", "energy", "time", "instructions"), rows))

    rows = []
    for row in (report.get("lines") or ())[:top]:
        if not (row["d_energy"] or row["d_count"] or row["d_time"]):
            continue
        where = row["function"]
        if row["file"]:
            where = "%s %s:%s" % (row["function"], row["file"], row["line"])
        rows.append((row["node"], where,
                     format_signed(row["d_energy"] * 1e9, "nJ"),
                     format_signed(row["d_count"])))
    if rows:
        lines.append("## Per-source-line deltas (b - a, top %d of %d)"
                     % (len(rows), report.get("line_rows_total", len(rows))))
        lines.append(markdown_table(
            ("node", "source line", "energy", "count"), rows))

    journeys = report["journeys"]
    if journeys["totals"]["a"]["flows"] or journeys["totals"]["b"]["flows"]:
        lines.append("## Packet flows")
        lines.append(markdown_table(
            ("run", "flows", "delivered", "dropped", "in flight"),
            [("a",) + tuple(journeys["totals"]["a"][k] for k in
                            ("flows", "delivered", "dropped", "in_flight")),
             ("b",) + tuple(journeys["totals"]["b"][k] for k in
                            ("flows", "delivered", "dropped", "in_flight"))]))
        changed = [flow for flow in journeys["flows"] if flow["changed"]]
        if changed:
            lines.append(markdown_table(
                ("flow", "changed", "a", "b"),
                [(flow["key"], ", ".join(flow["changed"]),
                  _flow_cell(flow["a"]), _flow_cell(flow["b"]))
                 for flow in changed[:top]]))

    metrics = report.get("metrics")
    if metrics and (metrics["added"] or metrics["removed"]
                    or metrics["changed"]):
        lines.append("## Metrics registry")
        rows = [(name, "-", "added") for name in metrics["added"][:top]]
        rows += [(name, "removed", "-") for name in metrics["removed"][:top]]
        rows += [(name, _short(value["a"]), _short(value["b"]))
                 for name, value in list(metrics["changed"].items())[:top]]
        lines.append(markdown_table(("metric", "a", "b"), rows))

    return "\n".join(lines).rstrip() + "\n"


def _flow_cell(flow):
    if flow is None:
        return "-"
    if flow["delivered"]:
        latency = flow["latency_s"]
        return "delivered %.2fms/%dhops" % ((latency or 0.0) * 1e3,
                                            flow["hops"])
    if flow["drop_reasons"]:
        return "dropped (%s)" % ",".join(flow["drop_reasons"])
    return "in flight"


def _short(value):
    if isinstance(value, dict):
        return "count=%s" % value.get("count")
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


# -- the calibration-perturbation self-test -----------------------------------

#: The self-test guest: boot touches no data memory (register moves and
#: timer scheduling only), and the timer handler holds exactly one data
#: memory access, its ``st``.  Perturbing the DMEM-access calibration
#: therefore first shows up at that ``st`` -- which is exactly what the
#: localization must report -- and moves exactly one source line, the
#: unambiguous argmax ``snap-energy --self-test`` checks.
SELFTEST_APP = """
boot:
    movi r1, 0           ; TIMER0 -> on_tick
    movi r2, on_tick
    setaddr r1, r2
    movi r1, 0
    movi r2, 400
    schedlo r1, r2
    done
on_tick:
    addi r3, 1
    st r3, 0(r0)
    movi r1, 0
    movi r2, 400
    schedlo r1, r2
    done
"""

SELFTEST_HORIZON = 0.02
SELFTEST_HANDLER = "TIMER0"
SELFTEST_FUNCTION = "on_tick"


def selftest_builder(perturb=False, factor=1.5):
    """A ``(sim, horizon)`` builder for the self-test guest; with
    *perturb*, the DMEM-access energy calibration is scaled by
    *factor*."""
    from repro.asm import build
    from repro.core import CoreConfig
    from repro.energy.calibration import DEFAULT_CALIBRATION

    calibration = DEFAULT_CALIBRATION
    if perturb:
        calibration = replace(
            DEFAULT_CALIBRATION,
            dmem_access_pj=DEFAULT_CALIBRATION.dmem_access_pj * factor)

    def make():
        from repro.node.node import SensorNode

        node = SensorNode(node_id=0,
                          config=CoreConfig(calibration=calibration))
        node.load(build(SELFTEST_APP))
        node.processor.start()
        return node, SELFTEST_HORIZON

    return make


def self_test(bisect=False):
    """Perturb the calibration and verify snap-diff localizes it.

    Runs the self-test guest against a twin whose DMEM-access energy is
    scaled, and checks the first divergence lands on the ``st`` inside
    the timer handler with the right symbolicated function.  Returns
    ``(ok, failures, report)``; *failures* lists every check that did
    not hold (empty when *ok*).
    """
    make_a = selftest_builder(perturb=False)
    make_b = selftest_builder(perturb=True)
    if bisect:
        bisector = Bisector(make_a, make_b)
        divergence, run_a, run_b = bisector.localize(
            label_a="calibrated", label_b="perturbed")
        if divergence is None:
            return False, ["bisector found no divergence"], None
        report = compare(run_a, run_b)
        report["divergence"] = divergence.to_dict()
        report["identical"] = False
    else:
        sim_a, horizon = make_a()
        run_a = capture_run(sim_a, horizon, label="calibrated")
        sim_b, horizon = make_b()
        run_b = capture_run(sim_b, horizon, label="perturbed")
        report = compare(run_a, run_b)
        divergence = report["divergence"] and Divergence(
            **report["divergence"])

    failures = []
    if divergence is None:
        failures.append("no divergence found between calibrated and "
                        "perturbed runs")
        return False, failures, report
    record = divergence.record_a or {}
    if record.get("type") != "instruction":
        failures.append("divergent record is %r, expected an instruction"
                        % (record.get("type"),))
    if divergence.handler != SELFTEST_HANDLER:
        failures.append("localized handler %r, expected %r"
                        % (divergence.handler, SELFTEST_HANDLER))
    if not (divergence.mnemonic or "").startswith("st"):
        failures.append("localized instruction %r, expected the "
                        "handler's st" % (divergence.mnemonic,))
    location = divergence.location or {}
    if location.get("function") != SELFTEST_FUNCTION:
        failures.append("symbolicated function %r, expected %r"
                        % (location.get("function"), SELFTEST_FUNCTION))
    if divergence.fields and divergence.fields != ["energy"]:
        failures.append("divergent fields %r, expected ['energy']"
                        % (divergence.fields,))
    return not failures, failures, report
