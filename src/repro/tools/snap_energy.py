"""``snap-energy``: causal energy provenance for a simulated run.

Runs a :data:`repro.scenarios.CATALOGUE` scenario under an armed
:class:`~repro.obs.energy.EnergyLedger` and reports where every
picojoule went, four ways: per guest source line (with collapsed-stack
and speedscope flame-graph export), per protocol layer, per packet
journey (end-to-end cost including forwarding CPU and overhearing), and
per node battery lifetime (linear + drain-curve projection).  Every
view reconciles against the energy meters; the residual is always
reported and gates the exit code.

Exit codes: 0 on success (all views reconcile), 1 when a view's
residual exceeds the tolerance or the budget demo fails to trip, 2 on
usage errors or a failed ``--self-test``.

Examples::

    # flame graphs for the C-compiled fig5 blink guest
    snap-energy c_blink --collapsed blink.folded --speedscope blink.json

    # per-packet joule accounting on the 3-node convergecast
    snap-energy convergecast --packets

    # battery projection: 2 mJ capacity per node
    snap-energy convergecast --lifetime --capacity 2e-3

    # trip the watchdog's energy_budget invariant on purpose
    snap-energy --demo-budget

    # prove line/layer localization end to end (CI gate)
    snap-energy --self-test
"""

import argparse
import json
import math
import sys

from repro.obs.context import Observability
from repro.obs.diff import (
    SELFTEST_FUNCTION,
    SELFTEST_HANDLER,
    selftest_builder,
)
from repro.obs.energy import project_lifetime
from repro.obs.timeline import TimelineSampler
from repro.scenarios import CATALOGUE, resolve, run_to

#: Default reconciliation gate: views must attribute the meter total to
#: within this relative residual.  Observed residuals are float-
#: association noise (1e-12 .. 1e-7 relative); the acceptance bar in
#: the docs is 1e-2.
DEFAULT_TOLERANCE = 1e-4

def run_scenario(name, fast_path=True, until=None, capacity=None,
                 budgets=None, timeline_interval=None):
    """Build and run one scenario under an armed ledger.

    Returns ``(obs, sim, sampler, watchdog)``; *sampler* is ``None``
    unless a lifetime projection was requested via *capacity*, and
    *watchdog* is ``None`` unless *budgets* were configured.
    """
    from repro.node.node import SensorNode

    sim, horizon = CATALOGUE[name](fast_path)
    if until is not None:
        horizon = until
    obs = Observability(energy=True, journeys=True)
    sim.attach_observability(obs)

    sampler = None
    if capacity is not None:
        if timeline_interval is None:
            timeline_interval = max((horizon - sim.kernel.now) / 50.0, 1e-6)
        nodes = {sim.name: sim} if isinstance(sim, SensorNode) \
            else sim.nodes
        sampler = TimelineSampler(sim.kernel, nodes, timeline_interval,
                                  obs=obs).start()
    watchdog = None
    if budgets:
        from repro.obs.watchdog import Watchdog

        watchdog = Watchdog(interval=max((horizon - sim.kernel.now) / 100.0,
                                         1e-6),
                            invariants=("energy_budget",), budgets=budgets)
        watchdog.watch(sim)
        watchdog.start()

    run_to(sim, horizon)
    if obs.journeys is not None:
        obs.journeys.flush()
    return obs, sim, sampler, watchdog


def build_report(ledger, sampler=None, capacity=None, top=20):
    """The full ``repro.obs.energy/1`` report payload."""
    line_view = ledger.line_view()
    layer_view = ledger.layer_view()
    packet_view = ledger.packet_view()
    report = {
        "schema": "repro.obs.energy/1",
        "total_j": line_view["total_j"],
        "lines": {
            "frames": line_view["frames"][:top] if top else
            line_view["frames"],
            "frames_total": len(line_view["frames"]),
            "attributed_j": line_view["attributed_j"],
            "residual_j": line_view["residual_j"],
            "residual_frac": line_view["residual_frac"],
        },
        "layers": {
            "by_layer": layer_view["layers"],
            "attributed_j": layer_view["attributed_j"],
            "residual_j": layer_view["residual_j"],
            "residual_frac": layer_view["residual_frac"],
        },
        "packets": {
            "rows": packet_view["packets"],
            "non_packet": packet_view["non_packet"],
            "attributed_j": packet_view["attributed_j"],
            "residual_j": packet_view["residual_j"],
            "residual_frac": packet_view["residual_frac"],
        },
    }
    if sampler is not None and capacity is not None:
        report["lifetime"] = project_lifetime(sampler.rows, capacity)
    return report


def _check_reconciliation(report, tolerance):
    """Every view's residual fraction against the gate; returns the
    list of failures (empty on success)."""
    failures = []
    for view in ("lines", "layers", "packets"):
        frac = report[view]["residual_frac"]
        if not (frac <= tolerance):
            failures.append("%s view residual %.3e exceeds tolerance %.0e"
                            % (view, frac, tolerance))
    return failures


# -- the calibration-perturbation self-test -----------------------------------

#: The self-test runs snap-diff's guest
#: (:data:`repro.obs.diff.SELFTEST_APP`): its timer handler holds
#: exactly one data-memory access, the ``st``.
SELFTEST_LAYER = "app"


def _selftest_ledger(perturb=False, factor=1.5):
    """Run the self-test guest (DMEM calibration scaled by *factor*
    when *perturb*) under a fresh ledger."""
    node, horizon = selftest_builder(perturb=perturb, factor=factor)()
    obs = Observability(energy=True)
    node.attach_observability(obs)
    node.kernel.run(until=horizon)
    return obs.energy


def self_test(factor=1.5):
    """Perturb one handler's instruction energy; verify the per-line
    delta localizes to the correct symbolicated line AND layer.

    Returns ``(ok, failures, details)``.
    """
    baseline = _selftest_ledger()
    perturbed = _selftest_ledger(perturb=True, factor=factor)

    # The expected line: the single st in the perturbed run's sites.
    expected = None
    for site in perturbed.profiler.sites.values():
        if site.mnemonic.startswith("st ") and site.handler == \
                SELFTEST_HANDLER:
            record = perturbed._records.get(site.node)
            function, file, line = perturbed._symbolicate(record, site.pc)
            expected = {"function": function, "file": file, "line": line}
    failures = []
    if expected is None:
        return False, ["no st instruction observed in the timer handler"], \
            None

    def frame_map(ledger):
        return {(f["function"], f["file"], f["line"], f["handler"]): f
                for f in ledger.line_view()["frames"]}

    frames_a, frames_b = frame_map(baseline), frame_map(perturbed)
    deltas = []
    for key in set(frames_a) | set(frames_b):
        energy_a = frames_a.get(key, {}).get("energy_j", 0.0)
        entry_b = frames_b.get(key, {})
        deltas.append((abs(entry_b.get("energy_j", 0.0) - energy_a),
                       key, entry_b.get("layer")))
    deltas.sort(reverse=True)
    top_delta, (function, file, line, handler), layer = deltas[0]
    details = {"expected": expected,
               "hottest_delta": {"function": function, "file": file,
                                 "line": line, "handler": handler,
                                 "layer": layer, "delta_j": top_delta}}
    if top_delta <= 0.0:
        failures.append("perturbation produced no per-line energy delta")
    if function != expected["function"] or line != expected["line"]:
        failures.append(
            "hottest delta landed on %s:%s in %r, expected %s:%s in %r"
            % (file, line, function, expected["file"], expected["line"],
               expected["function"]))
    if function != SELFTEST_FUNCTION:
        failures.append("expected the delta inside %r, got %r"
                        % (SELFTEST_FUNCTION, function))
    if handler != SELFTEST_HANDLER:
        failures.append("expected handler %r, got %r"
                        % (SELFTEST_HANDLER, handler))
    if layer != SELFTEST_LAYER:
        failures.append("expected layer %r, got %r"
                        % (SELFTEST_LAYER, layer))
    return not failures, failures, details


# -- the budget-watchdog demo --------------------------------------------------

def demo_budget(out=None):
    """Arm an absurdly small per-node energy budget on the C blink and
    verify the watchdog trips it mid-run.  Returns 0 when the invariant
    fires as designed."""
    from repro.obs.watchdog import InvariantViolation

    write = out.write if out is not None else sys.stdout.write
    try:
        run_scenario("c_blink", budgets={"node1": 1e-9})
    except InvariantViolation as violation:
        write("budget demo: watchdog tripped as designed\n  %s\n"
              % violation)
        return 0
    write("budget demo: FAILED -- the 1 nJ budget was never tripped\n")
    return 1


# -- CLI ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="snap-energy",
        description="causal energy provenance: source-line flame graphs, "
                    "layer budgets, per-packet joule accounting, and "
                    "battery-lifetime projection")
    parser.add_argument("scenario", nargs="?",
                        help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list available scenarios and exit")
    parser.add_argument("--engine", choices=("fast", "ref"), default="fast",
                        help="interpreter engine (default fast)")
    parser.add_argument("--until", type=float,
                        help="horizon override in simulated seconds")
    parser.add_argument("--top", type=int, default=20,
                        help="rows per table (default 20)")
    parser.add_argument("--collapsed", metavar="PATH",
                        help="write a Brendan Gregg collapsed-stack file "
                             "(weights in pJ)")
    parser.add_argument("--speedscope", metavar="PATH",
                        help="write a speedscope JSON profile")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full repro.obs.energy/1 report")
    parser.add_argument("--lines", action="store_true",
                        help="print the per-source-line table")
    parser.add_argument("--layers", action="store_true",
                        help="print the per-layer table")
    parser.add_argument("--packets", action="store_true",
                        help="print the per-packet cost table")
    parser.add_argument("--lifetime", action="store_true",
                        help="project battery lifetime (needs --capacity)")
    parser.add_argument("--capacity", type=float,
                        help="battery capacity in joules per node")
    parser.add_argument("--budget", action="append", metavar="NODE=J",
                        default=[],
                        help="arm the watchdog energy_budget invariant "
                             "(repeatable)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="reconciliation gate on each view's residual "
                             "fraction (default %g)" % DEFAULT_TOLERANCE)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stdout report")
    parser.add_argument("--self-test", action="store_true",
                        help="perturb one handler's instruction energy and "
                             "verify the delta localizes to the right "
                             "source line and layer")
    parser.add_argument("--demo-budget", action="store_true",
                        help="run the budget-watchdog demo (trips the "
                             "energy_budget invariant on purpose)")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(CATALOGUE):
            print(name)
        return 0
    if args.self_test:
        return _run_self_test(args)
    if args.demo_budget:
        return demo_budget()
    if not args.scenario:
        parser.error("a scenario is required "
                     "(or --list / --self-test / --demo-budget)")
    try:
        scenario, fast_path = resolve("%s:%s" % (args.scenario, args.engine))
    except ValueError as error:
        print("snap-energy: error: %s" % error, file=sys.stderr)
        return 2
    if args.lifetime and args.capacity is None:
        parser.error("--lifetime needs --capacity (joules per node)")

    budgets = {}
    for spec in args.budget:
        name, _, joules = spec.partition("=")
        try:
            budgets[name] = float(joules)
        except ValueError:
            parser.error("bad --budget %r (want NODE=JOULES)" % spec)

    from repro.obs.watchdog import InvariantViolation

    try:
        obs, sim, sampler, watchdog = run_scenario(
            scenario, fast_path=fast_path,
            until=args.until,
            capacity=args.capacity if args.lifetime else None,
            budgets=budgets)
    except InvariantViolation as violation:
        print("snap-energy: %s" % violation, file=sys.stderr)
        return 1

    ledger = obs.energy
    report = build_report(ledger, sampler=sampler,
                          capacity=args.capacity if args.lifetime else None,
                          top=args.top)
    if args.collapsed:
        with open(args.collapsed, "w") as handle:
            handle.write(ledger.collapsed_stack())
    if args.speedscope:
        with open(args.speedscope, "w") as handle:
            json.dump(ledger.speedscope(name=args.scenario), handle,
                      indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True, default=str)
    if not args.quiet:
        _print_report(args, ledger, report)

    failures = _check_reconciliation(report, args.tolerance)
    if failures:
        for failure in failures:
            print("snap-energy: RECONCILIATION FAILED: %s" % failure,
                  file=sys.stderr)
        return 1
    return 0


def _run_self_test(args):
    ok, failures, details = self_test()
    if ok:
        hot = details["hottest_delta"]
        print("self-test: PASS -- perturbation localized to %s %s:%s "
              "(handler %s, layer %s, +%.3f nJ)"
              % (hot["function"], hot["file"], hot["line"], hot["handler"],
                 hot["layer"], hot["delta_j"] * 1e9))
        return 0
    print("self-test: FAIL", file=sys.stderr)
    for failure in failures:
        print("  - " + failure, file=sys.stderr)
    return 2


def _print_report(args, ledger, report):
    print("snap-energy: %s · %.3f nJ total · residuals "
          "lines %.3g%% / layers %.3g%% / packets %.3g%%"
          % (args.scenario, report["total_j"] * 1e9,
             report["lines"]["residual_frac"] * 100,
             report["layers"]["residual_frac"] * 100,
             report["packets"]["residual_frac"] * 100))
    wants_any = args.lines or args.layers or args.packets or args.lifetime
    if args.lines or not wants_any:
        print()
        print("-- hottest source lines --")
        for frame in report["lines"]["frames"][:args.top]:
            where = frame["function"]
            if frame["file"]:
                where = "%s %s:%s" % (frame["function"], frame["file"],
                                      frame["line"])
            print("  %-10s %-12s %-34s %10.3f nJ %8d hits"
                  % (frame["node"], frame["layer"], where,
                     frame["energy_j"] * 1e9, frame["count"]))
    if args.layers or not wants_any:
        print()
        print("-- energy by layer --")
        total = report["total_j"] or 1.0
        for layer, energy in sorted(report["layers"]["by_layer"].items(),
                                    key=lambda kv: -kv[1]):
            if energy:
                print("  %-12s %12.3f nJ  %6.2f%%"
                      % (layer, energy * 1e9, 100.0 * energy / total))
    if args.packets or not wants_any:
        rows = report["packets"]["rows"]
        if rows or args.packets:
            print()
            print("-- per-packet cost --")
            for row in rows[:args.top]:
                print("  #%-3s %-10s %s->%s %s %d hops %10.3f nJ "
                      "(radio %.3f + cpu %.3f)"
                      % (row["journey"], row["kind"], row["origin"],
                         row["destination"],
                         "ok" if row["delivered"] else "lost",
                         row["hops"], row["total_j"] * 1e9,
                         row["radio_j"] * 1e9, row["cpu_j"] * 1e9))
            non_packet = report["packets"]["non_packet"]
            print("  (non-packet) cpu %.3f nJ · idle-sleep %.3f nJ · "
                  "radio idle %.3f nJ"
                  % (non_packet["cpu_j"] * 1e9,
                     non_packet["idle_sleep_j"] * 1e9,
                     non_packet["radio_idle_j"] * 1e9))
    lifetime = report.get("lifetime")
    if lifetime:
        print()
        print("-- battery lifetime (capacity %g J) --" % args.capacity)
        for node, row in sorted(lifetime["nodes"].items()):
            print("  %-10s %.3e W mean · linear %s · drain-curve %s"
                  % (node, row["mean_power_w"],
                     _fmt_eta(row["linear_s"]), _fmt_eta(row["drain_s"])))
        print("  network partition (first death: %s) at %s"
              % (lifetime["first_death"],
                 _fmt_eta(lifetime["partition_s"])))


def _fmt_eta(seconds):
    if seconds is None or not math.isfinite(seconds):
        return "never"
    if seconds >= 86400:
        return "%.1f days" % (seconds / 86400.0)
    if seconds >= 3600:
        return "%.1f hours" % (seconds / 3600.0)
    return "%.1f s" % seconds


if __name__ == "__main__":
    sys.exit(main())
