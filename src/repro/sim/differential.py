"""Differential proof harness for checkpoint/restore.

The determinism contract (DESIGN.md, "Checkpoint & deterministic
replay") is proven the same way PR 4 proved the fast path: run a
scenario to a mid-flight time ``t``, :func:`~repro.sim.checkpoint.capture`,
:func:`~repro.sim.checkpoint.restore` into a fresh simulator, run both
the resumed and an uninterrupted twin to the horizon ``T``, and assert
:func:`~repro.sim.checkpoint.network_digest` equality -- every meter
accumulator at full float precision, every radio/channel counter.

The scenarios are the :data:`repro.scenarios.CATALOGUE` builders: each
plays its staged host-side prologue, then hands back a sim that evolves
autonomously to the horizon.  Checkpoint times are drawn from that
autonomous tail, so the interrupted and uninterrupted twins differ only
in the capture/restore round-trip under test.

Run standalone (CI's ``checkpoint`` job)::

    python -m repro.sim.differential --scenarios straightline,blink \
        --json checkpoint-report.json
"""

import argparse
import json
import sys

from repro.obs.diff import Bisector, deep_diff_paths
from repro.scenarios import CATALOGUE, ENGINES, resolve, run_to
from repro.sim.checkpoint import Checkpoint, capture, network_digest, restore

#: The cheapest scenarios, used by CI's differential smoke matrix.
CHEAP_SCENARIOS = ("straightline", "blink")


# -- the differential ---------------------------------------------------------


def checkpoint_time(sim, horizon, fraction):
    """A mid-flight capture time: *fraction* of the autonomous tail."""
    start = sim.kernel.now
    return start + (horizon - start) * fraction


def differential(scenario, fast_path, fraction=0.5, via_json=True,
                 localize=False):
    """Run one (scenario, engine) differential; returns a report dict.

    Builds the scenario twice.  The *baseline* runs uninterrupted to the
    horizon.  The *subject* runs to ``t`` (a *fraction* of the autonomous
    tail), is captured, optionally round-tripped through JSON text
    (*via_json*, the default -- the persisted format is what must be
    deterministic), restored into a fresh simulator, and resumed to the
    horizon.  ``report["identical"]`` is the verdict;
    ``report["baseline"]``/``report["resumed"]`` hold the full digests.

    With *localize*, a failed differential additionally carries
    ``report["divergence"]``: the first divergent trace record between
    the baseline and resumed tails, pinned to node/handler/symbolicated
    PC by :mod:`repro.obs.diff` (see :func:`localize_divergence`).

    Raises :class:`ValueError` unless ``0 <= fraction <= 1``: outside
    that range the capture lands before the autonomous tail or after
    the horizon.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("checkpoint fraction %r is outside [0, 1]"
                         % (fraction,))
    builder = CATALOGUE[scenario]

    baseline_sim, horizon = builder(fast_path)
    run_to(baseline_sim, horizon)
    baseline = network_digest(baseline_sim)

    subject, horizon_b = builder(fast_path)
    if horizon_b != horizon:
        raise AssertionError("non-deterministic scenario builder %r"
                             % scenario)
    t = checkpoint_time(subject, horizon, fraction)
    run_to(subject, t)
    checkpoint = capture(subject)
    if via_json:
        checkpoint = Checkpoint.from_json(checkpoint.to_json())
    resumed_sim = restore(checkpoint)
    run_to(resumed_sim, horizon)
    resumed = network_digest(resumed_sim)

    report = {
        "scenario": scenario,
        "fast_path": fast_path,
        "t": t,
        "horizon": horizon,
        "identical": resumed == baseline,
        "baseline": baseline,
        "resumed": resumed,
    }
    if localize and not report["identical"]:
        report["divergence"] = localize_divergence(
            scenario, fast_path, t, via_json=via_json)
    return report


def localize_divergence(scenario, fast_path, t, via_json=True,
                        max_probes=12, tail=16):
    """Pin a failed differential's divergence to its first trace record.

    Rebuilds both sides of the differential at time *t* -- an
    uninterrupted twin and a capture/restore round trip -- and hands
    them to :class:`repro.obs.diff.Bisector`: bisect the digests over
    the tail, re-run the bisected window under the trace bus, and
    localize the first mismatching record (node, handler, symbolicated
    PC, flight-recorder tails).  Returns the divergence as a dict (with
    a rendered ``text``), or ``None`` when the tails never diverge.

    The restore here goes through this module's ``restore`` binding so
    fault-injection harnesses can intercept exactly the path under test.
    """
    builder = CATALOGUE[scenario]

    def make_baseline():
        sim, horizon = builder(fast_path)
        run_to(sim, t)
        return sim, horizon

    def make_resumed():
        sim, horizon = builder(fast_path)
        run_to(sim, t)
        ckpt = capture(sim)
        if via_json:
            ckpt = Checkpoint.from_json(ckpt.to_json())
        return restore(ckpt), horizon

    bisector = Bisector(make_baseline, make_resumed, max_probes=max_probes)
    divergence, _, _ = bisector.localize(
        tail=tail, label_a="baseline", label_b="resumed")
    if divergence is None:
        return None
    result = divergence.to_dict()
    result["text"] = divergence.describe()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.differential",
        description="checkpoint/restore differential matrix")
    parser.add_argument("--scenarios",
                        default=",".join(CHEAP_SCENARIOS),
                        help="comma-separated scenario names (or 'all')")
    parser.add_argument("--fractions", default="0.25,0.75",
                        help="checkpoint points as fractions of the tail")
    parser.add_argument("--json", help="write the full report here")
    parser.add_argument("--no-localize", dest="localize",
                        action="store_false", default=True,
                        help="on divergence, skip snap-diff localization "
                             "and print only digest paths")
    args = parser.parse_args(argv)

    names = list(CATALOGUE) if args.scenarios == "all" \
        else args.scenarios.split(",")
    try:
        runs = [resolve("%s:%s" % (name, engine))
                for name in names for engine in ENGINES]
    except ValueError as error:
        parser.error(str(error))
    fractions = []
    for field in args.fractions.split(","):
        try:
            fraction = float(field)
        except ValueError:
            parser.error("--fractions: %r is not a number" % field)
        if not 0.0 <= fraction <= 1.0:
            parser.error("--fractions: %r is outside [0, 1]" % field)
        fractions.append(fraction)

    reports, failed = [], 0
    for name, fast_path in runs:
        for fraction in fractions:
            report = differential(name, fast_path, fraction=fraction,
                                  localize=args.localize)
            reports.append(report)
            verdict = "ok" if report["identical"] else "DIVERGED"
            print("%-14s fast_path=%-5s t=%.6fs  %s"
                  % (name, fast_path, report["t"], verdict))
            if not report["identical"]:
                failed += 1
                for line in deep_diff_paths(report["baseline"],
                                            report["resumed"])[:20]:
                    print("    " + line)
                divergence = report.get("divergence")
                if divergence is not None:
                    for line in divergence["text"].splitlines():
                        print("    " + line)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"reports": reports, "failed": failed}, handle,
                      indent=2, sort_keys=True)
        print("report: %s" % args.json)

    print("%d/%d differentials identical"
          % (len(reports) - failed, len(reports)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
