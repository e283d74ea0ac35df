"""snap-diff tests: stream alignment, divergence localization,
checkpoint bisection (with its Hypothesis invariants), cross-run
comparison reports, the differential-harness wiring (deliberately
broken restore), and the CLI.

The localization golden pins the self-test's divergence record shape;
regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_diff.py --regen
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.differential as differential
from repro.obs.diff import (
    SCHEMA,
    Bisector,
    DiffError,
    align,
    capture_from_checkpoint,
    capture_run,
    compare,
    deep_diff_paths,
    first_divergence,
    load_trace,
    render_markdown,
    self_test,
    selftest_builder,
)
from repro.scenarios import CATALOGUE
from repro.sim.checkpoint import capture
from repro.tools.snap_diff import main as snap_diff_main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
GOLDEN = os.path.join(GOLDEN_DIR, "diff_selftest.json")

#: The localization fields the golden pins: everything structural, no
#: floats (times and energies move with the energy model).
GOLDEN_FIELDS = ("kind", "index", "node", "handler", "pc", "mnemonic",
                 "fields", "location")


def _instr(pc, mnemonic, energy=1.0, handler="H", node="n0.cpu", time=0.0):
    return {"type": "instruction", "node": node, "time": time, "pc": pc,
            "mnemonic": mnemonic, "instr_class": "ALU", "handler": handler,
            "energy": energy, "duration": 1e-9}


@pytest.fixture(scope="module")
def perturbed_pair():
    """Full captures of the self-test guest: calibrated vs perturbed."""
    sim_a, horizon = selftest_builder(perturb=False)()
    run_a = capture_run(sim_a, horizon, label="calibrated")
    sim_b, horizon = selftest_builder(perturb=True)()
    run_b = capture_run(sim_b, horizon, label="perturbed")
    return run_a, run_b


@pytest.fixture(scope="module")
def reference_divergence(perturbed_pair):
    return first_divergence(*perturbed_pair)


# -- alignment ----------------------------------------------------------------


class TestAlign:
    def test_identical_streams(self):
        events = [_instr(0, "nop"), _instr(1, "halt")]
        assert align(events, list(events)) is None

    def test_first_differing_record_and_fields(self):
        a = [_instr(0, "nop"), _instr(1, "add r1, r2", energy=1.0)]
        b = [_instr(0, "nop"), _instr(1, "add r1, r2", energy=2.0)]
        divergence = align(a, b)
        assert divergence.index == 1
        assert divergence.kind == "event"
        assert divergence.fields == ["energy"]

    def test_stable_mode_ignores_floats(self):
        a = [_instr(0, "nop", energy=1.0)]
        b = [_instr(0, "nop", energy=9.9)]
        assert align(a, b, mode="stable") is None
        b = [_instr(0, "halt", energy=9.9)]
        divergence = align(a, b, mode="stable")
        assert divergence.fields == ["mnemonic"]

    def test_length_mismatch(self):
        a = [_instr(0, "nop")]
        b = [_instr(0, "nop"), _instr(1, "halt")]
        divergence = align(a, b)
        assert divergence.kind == "length"
        assert divergence.index == 1
        assert divergence.record_a is None
        assert divergence.record_b["mnemonic"] == "halt"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            align([], [], mode="fuzzy")


class TestDeepDiffPaths:
    def test_nested_paths(self):
        paths = deep_diff_paths({"a": {"b": 1, "c": 2}}, {"a": {"b": 1,
                                                                "c": 3}})
        assert paths == ["a.c: 2 != 3"]


# -- localization on real runs ------------------------------------------------


class TestLocalization:
    def test_divergence_is_the_handlers_store(self, reference_divergence):
        divergence = reference_divergence
        assert divergence.kind == "event"
        assert divergence.record_a["type"] == "instruction"
        assert divergence.handler == "TIMER0"
        assert divergence.mnemonic.startswith("st")
        assert divergence.fields == ["energy"]

    def test_symbolicated_location(self, reference_divergence):
        location = reference_divergence.location
        assert location["function"] == "on_tick"
        assert location["file"] is not None
        assert location["line"] is not None

    def test_flight_recorder_tails(self, reference_divergence):
        divergence = reference_divergence
        assert 0 < len(divergence.tail_a) <= 16
        assert len(divergence.tail_a) == len(divergence.tail_b)
        # Both tails end at the divergent record.
        assert divergence.tail_a[-1] == divergence.record_a
        assert divergence.tail_b[-1] == divergence.record_b
        # Records before it are identical by construction.
        assert divergence.tail_a[:-1] == divergence.tail_b[:-1]

    def test_non_instruction_divergence_attributes_to_preceding_pc(self):
        a = [_instr(4, "schedlo r1, r2", handler="TIMER0"),
             {"type": "enqueue", "node": "n0.cpu.eq", "time": 1.0,
              "event": "TIMER0", "depth": 1}]
        b = [_instr(4, "schedlo r1, r2", handler="TIMER0"),
             {"type": "enqueue", "node": "n0.cpu.eq", "time": 1.0,
              "event": "TIMER0", "depth": 2}]
        from repro.obs.diff import RunCapture, localize

        divergence = localize(
            align(a, b),
            RunCapture(label="a", kind="trace", events=a),
            RunCapture(label="b", kind="trace", events=b))
        assert divergence.handler == "TIMER0"
        assert divergence.pc == 4
        assert divergence.mnemonic == "schedlo r1, r2"


# -- cross-run comparison -----------------------------------------------------


class TestCompare:
    def test_report_schema_and_verdict(self, perturbed_pair):
        report = compare(*perturbed_pair)
        assert report["schema"] == SCHEMA
        assert report["identical"] is False
        assert report["divergence"]["handler"] == "TIMER0"

    def test_handler_deltas_blame_the_perturbed_handler(self,
                                                        perturbed_pair):
        report = compare(*perturbed_pair)
        top = report["handlers"][0]
        assert top["handler"] == "TIMER0"
        assert top["d_energy"] > 0  # perturbation scales energy up
        # Same instruction stream on both sides: only energy moves.
        assert top["d_instructions"] == 0
        boot = [row for row in report["handlers"]
                if row["handler"] == "boot"]
        assert boot and boot[0]["d_energy"] == 0

    def test_pc_deltas_are_memory_ops_only(self, perturbed_pair):
        report = compare(*perturbed_pair)
        moved = [row for row in report["pcs"] if row["d_energy"]]
        assert moved
        assert all(row["mnemonic"].split()[0] in ("ld", "st")
                   for row in moved)
        assert all(row["location"]["function"] == "on_tick"
                   for row in moved)

    def test_identical_runs_compare_clean(self):
        sim_a, horizon = selftest_builder(perturb=False)()
        sim_b, _ = selftest_builder(perturb=False)()
        report = compare(capture_run(sim_a, horizon, label="a"),
                         capture_run(sim_b, horizon, label="b"))
        assert report["identical"] is True
        assert report["divergence"] is None
        assert all(row["d_energy"] == 0 for row in report["handlers"])

    def test_markdown_rendering(self, perturbed_pair):
        report = compare(*perturbed_pair)
        text = render_markdown(report)
        assert "# snap-diff: calibrated vs perturbed" in text
        assert "Verdict: diverged" in text
        assert "first divergence" in text
        assert "handler=TIMER0" in text
        assert "| node | handler |" in text

    def test_report_is_json_serializable(self, perturbed_pair):
        report = compare(*perturbed_pair)
        assert json.loads(json.dumps(report))["schema"] == SCHEMA


# -- checkpoint bisection -----------------------------------------------------


class TestBisector:
    def test_bisect_narrows_to_the_first_tick(self, reference_divergence):
        bisector = Bisector(selftest_builder(perturb=False),
                            selftest_builder(perturb=True))
        window = bisector.bisect()
        t_divergence = reference_divergence.time_a
        assert window["t_lo"] is not None
        assert window["t_lo"] < t_divergence <= window["t_hi"]
        assert window["probes"] > 0
        assert window["digest_paths"]

    def test_localize_matches_full_stream_alignment(self,
                                                    reference_divergence):
        bisector = Bisector(selftest_builder(perturb=False),
                            selftest_builder(perturb=True))
        divergence, run_a, run_b = bisector.localize()
        assert divergence.window is not None
        # The bisected tail re-run must find the very same record the
        # full-stream alignment found (full float precision).
        assert divergence.record_a == reference_divergence.record_a
        assert divergence.record_b == reference_divergence.record_b
        assert divergence.location == reference_divergence.location

    def test_identical_runs_yield_no_window(self):
        bisector = Bisector(selftest_builder(perturb=False),
                            selftest_builder(perturb=False))
        assert bisector.bisect() is None
        divergence, run_a, run_b = bisector.localize()
        assert divergence is None


class TestBisectionInvariant:
    """Satellite invariant: restoring a mid-bisect snapshot and
    re-running to the divergence time reproduces the *identical*
    first-divergence record, wherever the snapshot was taken."""

    @given(fraction=st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=8, deadline=None)
    def test_restored_snapshot_reproduces_divergence(
            self, fraction, reference_divergence):
        reference = reference_divergence
        sim_a, horizon = selftest_builder(perturb=False)()
        sim_b, _ = selftest_builder(perturb=True)()
        start = sim_a.kernel.now
        # Snapshot strictly before the known divergence time, anywhere.
        t = start + (reference.time_a - start) * fraction
        sim_a.kernel.run(until=t)
        sim_b.kernel.run(until=t)
        ckpt_a = capture(sim_a, unknown="skip")
        ckpt_b = capture(sim_b, unknown="skip")

        run_a = capture_run(ckpt_a.restore(), horizon, label="a")
        run_b = capture_run(ckpt_b.restore(), horizon, label="b")
        divergence = first_divergence(run_a, run_b)

        assert divergence is not None
        assert divergence.record_a == reference.record_a
        assert divergence.record_b == reference.record_b
        assert divergence.fields == reference.fields


# -- self-test and its golden -------------------------------------------------


def selftest_localization():
    """The golden projection: structural localization fields only."""
    ok, failures, report = self_test()
    assert ok, failures
    divergence = report["divergence"]
    return {name: divergence[name] for name in GOLDEN_FIELDS}


class TestSelfTest:
    def test_self_test_passes(self):
        ok, failures, report = self_test()
        assert ok, failures
        assert report["identical"] is False

    def test_bisect_self_test_passes(self):
        ok, failures, report = self_test(bisect=True)
        assert ok, failures
        assert report["divergence"]["window"] is not None

    def test_localization_matches_golden(self):
        with open(GOLDEN) as handle:
            expected = json.load(handle)
        assert selftest_localization() == expected


# -- differential-harness wiring ----------------------------------------------


def _corrupting_restore(real_restore):
    """A restore that flips the sti guest's STATE cell to an
    out-of-range value, making the handler patch garbage into its own
    code -- a genuinely divergent resume."""

    def broken(checkpoint):
        sim = real_restore(checkpoint)
        node = sim if not hasattr(sim, "nodes") \
            else next(iter(sim.nodes.values()))
        node.processor.dmem.poke(0x10, 2)
        return sim

    return broken


class TestDifferentialWiring:
    def test_healthy_differential_has_no_divergence_key(self):
        report = differential.differential("blink", True, fraction=0.5,
                                           localize=True)
        assert report["identical"] is True
        assert "divergence" not in report

    def test_broken_restore_yields_localized_divergence(self, monkeypatch):
        monkeypatch.setattr(differential, "restore",
                            _corrupting_restore(differential.restore))
        report = differential.differential("sti", True, fraction=0.5,
                                           localize=True)
        assert report["identical"] is False
        divergence = report["divergence"]
        assert divergence is not None
        assert divergence["node"] == "node1.cpu"
        assert divergence["handler"] == "TIMER0"
        # The corruption patches the self-modifying site: localization
        # lands on the patched instruction, symbolicated to its label.
        assert divergence["location"]["function"] == "patch"
        assert "first divergence" in divergence["text"]

    def test_cli_prints_localization_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(differential, "restore",
                            _corrupting_restore(differential.restore))
        code = differential.main(["--scenarios", "sti",
                                  "--fractions", "0.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGED" in out
        assert "first divergence" in out
        assert "handler=TIMER0" in out


# -- the snap-diff CLI --------------------------------------------------------


def _write_trace(path, events):
    with open(path, "w") as handle:
        for record in events:
            handle.write(json.dumps(record) + "\n")


class TestSnapDiffCli:
    def test_self_test_exit_zero(self, capsys):
        assert snap_diff_main(["--self-test", "--quiet"]) == 0
        assert "self-test: PASS" in capsys.readouterr().out

    def test_scenario_pair_identical(self, capsys):
        code = snap_diff_main(["scenario:blink:fast", "scenario:blink:ref",
                               "--quiet"])
        assert code == 0

    def test_trace_pair_divergent(self, tmp_path, perturbed_pair,
                                  capsys):
        run_a, run_b = perturbed_pair
        trace_a = str(tmp_path / "a.jsonl")
        trace_b = str(tmp_path / "b.jsonl")
        _write_trace(trace_a, run_a.events)
        _write_trace(trace_b, run_b.events)
        report_path = str(tmp_path / "report.json")
        markdown_path = str(tmp_path / "report.md")
        code = snap_diff_main([trace_a, trace_b, "--json", report_path,
                               "--markdown", markdown_path, "--quiet"])
        assert code == 1
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["schema"] == SCHEMA
        assert report["divergence"]["handler"] == "TIMER0"
        with open(markdown_path) as handle:
            assert "Verdict: diverged" in handle.read()

    def test_trace_pair_stable_mode_identical(self, tmp_path,
                                              perturbed_pair):
        run_a, run_b = perturbed_pair
        trace_a = str(tmp_path / "a.jsonl")
        trace_b = str(tmp_path / "b.jsonl")
        _write_trace(trace_a, run_a.events)
        _write_trace(trace_b, run_b.events)
        assert snap_diff_main([trace_a, trace_b, "--mode", "stable",
                               "--quiet"]) == 0

    def test_checkpoint_inputs(self, tmp_path):
        sim, horizon = selftest_builder(perturb=False)()
        t = sim.kernel.now + (horizon - sim.kernel.now) * 0.5
        sim.kernel.run(until=t)
        path = str(tmp_path / "mid.ckpt.json")
        capture(sim, unknown="skip").save(path)
        code = snap_diff_main([path, path, "--until", str(horizon),
                               "--quiet"])
        assert code == 0

    def test_checkpoint_without_until_is_an_error(self, tmp_path, capsys):
        sim, horizon = selftest_builder(perturb=False)()
        path = str(tmp_path / "t0.ckpt.json")
        capture(sim, unknown="skip").save(path)
        assert snap_diff_main([path, path]) == 2
        assert "--until" in capsys.readouterr().err

    def test_unknown_input_is_an_error(self, tmp_path, capsys):
        assert snap_diff_main([str(tmp_path / "nope.bin"),
                               str(tmp_path / "nope.bin")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_scenario_is_an_error(self, capsys):
        assert snap_diff_main(["scenario:nope", "scenario:blink"]) == 2
        assert "unknown scenario 'nope' (have: %s)" \
            % ", ".join(sorted(CATALOGUE)) in capsys.readouterr().err

    def test_bisect_flag_on_scenarios(self, capsys):
        code = snap_diff_main(["scenario:straightline:fast",
                               "scenario:straightline:ref", "--bisect",
                               "--quiet"])
        assert code == 0


# -- malformed traces ---------------------------------------------------------

#: One bad trace line each, with what the error must say about it.
MALFORMED = [
    ("not json", "not JSON"),
    ("[1, 2]", "not a JSON object"),
    ('{"type": "instruction", "time": 0.1}', "has no node, pc, handler"),
    ('{"type": "instruction", "node": "n0.cpu", "handler": "H"}',
     "has no pc"),
    ('{"type": "instruction", "node": "n0.cpu", "pc": 3}',
     "has no handler"),
    ('{"type": "dispatch", "node": "n0.cpu", "event": "TIMER0"}',
     "has no handler"),
    ('{"type": "dispatch", "handler": "TIMER0"}', "has no node"),
    ('{"type": "instruction", "node": "n1", "pc": "12", '
     '"handler": "TIMER0"}', "field pc must be int, not '12'"),
    ('{"type": "instruction", "node": "n1", "pc": true, '
     '"handler": "TIMER0"}', "field pc must be int, not True"),
    ('{"type": "instruction", "node": "n1", "pc": 1.5, '
     '"handler": "TIMER0"}', "field pc must be int, not 1.5"),
    ('{"type": "instruction", "node": 7, "pc": 12, "handler": "TIMER0"}',
     "field node must be str, not 7"),
    ('{"type": "instruction", "node": "n1", "pc": 12, "handler": null}',
     "field handler must be str, not None"),
    ('{"type": "dispatch", "node": "n1", "handler": ["TIMER0"]}',
     "dispatch record field handler must be str"),
]


class TestMalformedTraces:
    @pytest.mark.parametrize("line,message", MALFORMED)
    def test_load_trace_names_file_and_line(self, tmp_path, line, message):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(_instr(0, "nop")) + "\n\n" + line + "\n")
        with pytest.raises(DiffError, match=message) as error:
            load_trace(path)
        assert str(error.value).startswith("%s:3: " % path)

    @pytest.mark.parametrize("line,message", MALFORMED)
    def test_cli_exits_two_without_traceback(self, tmp_path, capsys, line,
                                             message):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write(line + "\n")
        assert snap_diff_main([path, path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("snap-diff: error: %s:1: " % path)
        assert message in err

    @pytest.mark.parametrize("missing", ["node", "pc", "handler"])
    def test_fold_names_the_record(self, missing):
        from repro.obs.diff import RunCapture

        bad = _instr(4, "nop")
        del bad[missing]
        run = RunCapture(label="mine", kind="trace",
                         events=[_instr(0, "nop"), bad])
        with pytest.raises(DiffError,
                           match="mine: record 2: instruction record has "
                                 "no %s" % missing):
            compare(run, run)

    def test_fold_checks_dispatch_records(self):
        from repro.obs.diff import RunCapture

        run = RunCapture(label="mine", kind="trace", events=[
            {"type": "dispatch", "node": "n0.cpu", "time": 0.0}])
        with pytest.raises(DiffError, match="record 1: dispatch record "
                                            "has no handler"):
            compare(run, run)

    def test_fold_checks_field_types(self):
        from repro.obs.diff import RunCapture

        bad = _instr(4, "nop")
        bad["pc"] = "4"
        run = RunCapture(label="mine", kind="trace",
                         events=[_instr(0, "nop"), bad])
        with pytest.raises(DiffError, match="mine: record 2: instruction "
                                            "record field pc must be int"):
            compare(run, run)

    def test_missing_trace_file_is_a_diff_error(self, tmp_path):
        with pytest.raises(DiffError):
            load_trace(str(tmp_path / "absent.jsonl"))


# -- loaders ------------------------------------------------------------------


class TestLoaders:
    def test_load_trace_round_trip(self, tmp_path, perturbed_pair):
        run_a, _ = perturbed_pair
        path = str(tmp_path / "trace.jsonl")
        _write_trace(path, run_a.events)
        loaded = load_trace(path)
        assert loaded.kind == "trace"
        assert loaded.events == run_a.events
        assert loaded.time_s == run_a.events[-1]["time"]

    def test_capture_from_checkpoint_replays_tail(self, tmp_path):
        sim, horizon = selftest_builder(perturb=False)()
        t = sim.kernel.now + (horizon - sim.kernel.now) * 0.5
        sim.kernel.run(until=t)
        checkpoint = capture(sim, unknown="skip")
        run = capture_from_checkpoint(checkpoint, horizon, label="tail")
        assert run.kind == "checkpoint"
        assert run.events
        assert run.time_s == pytest.approx(horizon)

    def test_capture_from_checkpoint_needs_later_horizon(self):
        sim, _ = selftest_builder(perturb=False)()
        checkpoint = capture(sim, unknown="skip")
        with pytest.raises(DiffError, match="--until"):
            capture_from_checkpoint(checkpoint, checkpoint.time_s)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        payload = selftest_localization()
        with open(GOLDEN, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("regenerated %s" % GOLDEN)
    else:
        print("usage: python tests/test_diff.py --regen")
