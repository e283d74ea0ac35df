"""Crash-bundle construction and rendering.

When a simulation dies -- a guest program faults, a watchdog invariant
trips, or a host exception escapes the kernel -- the
:class:`~repro.obs.blackbox.Blackbox` facade calls
:func:`build_crash_bundle` to freeze everything a post-mortem needs into
one JSON-able dict, then :func:`write_bundle` to drop it on disk as
``<stem>.json`` (machine-readable) plus ``<stem>.md`` (human-readable).

Bundle schema (``repro.obs.crash-bundle/1``):

* ``reason`` -- ``guest_fault`` | ``invariant_violation`` |
  ``host_exception`` | ``manual``;
* ``error`` -- exception type/message (plus the invariant name and node
  for watchdog trips);
* ``time_s`` / ``wall_time`` -- simulation clock and host timestamp;
* ``nodes`` -- per-processor state: mode, pc (symbolicated when the
  program is known), registers, carry, meter summary, pending
  event-queue tokens, low DMEM, and a stack window around ``sp``;
* ``pending_events`` -- the kernel's live callbacks;
* ``disassembly`` -- the flight recorder's instruction tail per node,
  each entry carrying the retired pc, mnemonic, handler tag, energy,
  register write, and C source location;
* ``events_tail`` -- the flight recorder's recent system events;
* ``journeys`` -- in-flight/recent packet journeys when a journey
  tracker was attached;
* ``telemetry`` (optional) -- the streaming telemetry exporter's recent
  record tail and delivery counters, when a
  :class:`~repro.obs.telemetry.TelemetryExporter` was armed: the last
  thing every attached dashboard saw before the crash;
* ``checkpoint`` (optional) -- the blackbox's most recent periodic
  :mod:`repro.sim.checkpoint` snapshot, so ``snap-flight replay-tail
  --replay`` can restore and re-run only the tail up to the crash.

A fast-engine core may run ahead of the rest of a network (lookahead
bursts, DESIGN.md).  When a guest fault stops such a burst, ``time_s``
is the faulting core's own clock and every other node appears as of
its own frontier -- the state each had reached, not a snapshot at one
instant.  Replay is unaffected: the embedded checkpoint was captured
on the interaction lane, where all nodes agree on the time.

The ``snap-flight`` CLI (:mod:`repro.tools.snap_flight`) renders and
replays these bundles; ``tests/goldens/crash_bundle.json`` pins the
schema (normalized by :func:`normalize_bundle`).
"""

import datetime
import json
import os

from repro.core.exceptions import SimulationError
from repro.isa.registers import register_name

SCHEMA = "repro.obs.crash-bundle/1"

#: Words of DMEM captured from address 0 (the netstack's counter cells
#: and scratch words all live below this).
LOW_DMEM_WORDS = 32
#: Words captured around the stack pointer.
STACK_WINDOW_WORDS = 16

REG_SP = 13


def classify_error(error):
    """Map an exception to the bundle ``reason`` field."""
    from repro.obs.watchdog import InvariantViolation
    if error is None:
        return "manual"
    if isinstance(error, InvariantViolation):
        return "invariant_violation"
    if isinstance(error, SimulationError):
        return "guest_fault"
    return "host_exception"


def build_crash_bundle(error=None, reason=None, kernel=None, processors=(),
                       recorder=None, programs=None, obs=None,
                       checkpoint=None):
    """Freeze the current simulation state into a crash-bundle dict.

    *checkpoint* optionally embeds the blackbox's most recent periodic
    :mod:`repro.sim.checkpoint` snapshot (the raw schema dict);
    ``snap-flight replay-tail --replay`` restores it and re-runs only
    the tail up to the crash instead of replaying from t=0.
    """
    from repro.obs.watchdog import InvariantViolation
    programs = programs or {}
    bundle = {
        "schema": SCHEMA,
        "reason": reason or classify_error(error),
        "time_s": kernel.now if kernel is not None else None,
        "wall_time": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }
    if error is not None:
        bundle["error"] = {
            "type": type(error).__name__,
            "message": str(error),
        }
        if isinstance(error, InvariantViolation):
            bundle["error"]["invariant"] = error.invariant
            bundle["error"]["node"] = error.node
    bundle["nodes"] = {
        processor.name: _processor_state(processor,
                                         programs.get(processor.name))
        for processor in processors}
    if kernel is not None:
        bundle["pending_events"] = _pending_events(kernel)
    if recorder is not None:
        tail = recorder.snapshot(programs=programs)
        bundle["disassembly"] = tail["instructions"]
        bundle["events_tail"] = tail["events"]
    if obs is not None and getattr(obs, "journeys", None) is not None:
        bundle["journeys"] = [journey.summary()
                              for journey in obs.journeys.journeys[-8:]]
    if obs is not None and getattr(obs, "telemetry", None) is not None:
        bundle["telemetry"] = obs.telemetry.tail_snapshot()
    if checkpoint is not None:
        bundle["checkpoint"] = checkpoint
    return bundle


def _processor_state(processor, program):
    regs = {register_name(index): processor.regs.peek(index)
            for index in range(15)}
    meter = processor.meter
    state = {
        "mode": processor.mode.value,
        "pc": processor.pc,
        "handler": processor.current_tag,
        "registers": regs,
        "carry": processor.carry,
        "meter": {
            "instructions": meter.instructions,
            "cycles": meter.cycles,
            "total_energy_j": meter.total_energy,
            "busy_s": meter.busy_time,
            "idle_s": meter.idle_time,
            "wakeups": meter.wakeups,
            "event_tokens": meter.event_tokens,
        },
        "event_queue": [{"event": token.event.name,
                         "raised_at": token.raised_at}
                        for token in processor.event_queue.tokens()],
        "dmem_low": processor.dmem.dump(0, LOW_DMEM_WORDS),
    }
    sp = processor.regs.peek(REG_SP)
    if 0 < sp <= processor.dmem.size_words:
        count = min(STACK_WINDOW_WORDS, processor.dmem.size_words - sp)
        state["stack_window"] = {"base": sp,
                                 "words": processor.dmem.dump(sp, count)}
    if program is not None:
        loc = program.lookup(processor.pc)
        state["pc_source"] = {"function": loc.function, "file": loc.file,
                              "line": loc.line}
    return state


def _pending_events(kernel):
    events = []
    for entry in kernel.heap_entries():
        if entry[2] is None:
            continue
        callback = entry[2]
        events.append({
            "time": entry[0],
            "callback": getattr(callback, "__qualname__",
                                repr(callback)),
        })
    return events


# -- rendering ---------------------------------------------------------------


def _format_source(source):
    if not source or source.get("file") is None:
        return ""
    where = "%s:%s" % (source["file"], source["line"])
    if source.get("function"):
        where = "%s (%s)" % (where, source["function"])
    return where


def render_markdown(bundle):
    """Render a crash bundle as a Markdown report."""
    lines = ["# Crash bundle", ""]
    lines.append("* reason: `%s`" % bundle.get("reason"))
    error = bundle.get("error")
    if error:
        lines.append("* error: `%s`: %s"
                     % (error.get("type"), error.get("message")))
        if error.get("invariant"):
            lines.append("* invariant: `%s`" % error["invariant"])
    if bundle.get("time_s") is not None:
        lines.append("* simulated time: %.9f s" % bundle["time_s"])
    lines.append("* captured: %s" % bundle.get("wall_time"))
    for name, state in sorted((bundle.get("nodes") or {}).items()):
        lines += ["", "## %s" % name, ""]
        pc_where = _format_source(state.get("pc_source"))
        lines.append("* mode `%s`, pc `0x%04x`%s, handler `%s`"
                     % (state["mode"], state["pc"],
                        " at %s" % pc_where if pc_where else "",
                        state.get("handler")))
        meter = state.get("meter", {})
        lines.append("* %d instructions, %.3f nJ, %d wakeups"
                     % (meter.get("instructions", 0),
                        meter.get("total_energy_j", 0.0) * 1e9,
                        meter.get("wakeups", 0)))
        regs = state.get("registers", {})
        lines.append("* regs: " + " ".join(
            "%s=%04x" % (reg, value) for reg, value in sorted(
                regs.items(), key=lambda kv: int(kv[0][1:])
                if kv[0][1:].isdigit() else 99)))
        tokens = state.get("event_queue") or []
        if tokens:
            lines.append("* pending tokens: " + ", ".join(
                token["event"] for token in tokens))
        tail = (bundle.get("disassembly") or {}).get(name) or []
        if tail:
            lines += ["", "### Last %d instructions" % len(tail), "",
                      "| time (s) | pc | instruction | handler | source |",
                      "|---|---|---|---|---|"]
            for record in tail:
                lines.append("| %.9f | 0x%04x | `%s` | %s | %s |" % (
                    record["time"], record["pc"], record["mnemonic"],
                    record["handler"],
                    _format_source(record.get("source"))))
    events = bundle.get("events_tail") or []
    if events:
        lines += ["", "## Recent events", ""]
        for event in events:
            detail = event.get("detail")
            lines.append("* %.9f s `%s` %s%s"
                         % (event["time"], event["kind"], event["node"],
                            " -- %s" % (detail,) if detail is not None
                            else ""))
    pending = bundle.get("pending_events") or []
    if pending:
        lines += ["", "## Pending kernel events", ""]
        for event in pending:
            lines.append("* %.9f s -> `%s`"
                         % (event["time"], event["callback"]))
    journeys = bundle.get("journeys") or []
    if journeys:
        lines += ["", "## Packet journeys", ""]
        for journey in journeys:
            lines.append("* %s" % json.dumps(journey, default=str))
    lines.append("")
    return "\n".join(lines)


def write_bundle(bundle, directory, stem="crash"):
    """Write ``<stem>.json`` and ``<stem>.md`` under *directory*.

    Returns ``(json_path, md_path)``.  The directory is created if
    missing; an existing bundle with the same stem is overwritten.
    """
    os.makedirs(directory, exist_ok=True)
    json_path = os.path.join(directory, stem + ".json")
    md_path = os.path.join(directory, stem + ".md")
    with open(json_path, "w") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    with open(md_path, "w") as handle:
        handle.write(render_markdown(bundle))
    return json_path, md_path


def normalize_bundle(bundle):
    """A copy of *bundle* with host-volatile fields pinned, for goldens.

    Wall-clock timestamps and on-disk paths vary run to run; everything
    else in a bundle is a pure function of the (deterministic)
    simulation.
    """
    normalized = json.loads(json.dumps(bundle, sort_keys=True, default=str))
    normalized["wall_time"] = "1970-01-01T00:00:00+00:00"
    normalized.pop("paths", None)
    return normalized
