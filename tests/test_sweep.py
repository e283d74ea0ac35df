"""Tests for the fleet sweep engine: grid expansion, seed derivation,
pooled-vs-serial bit-identity, failure isolation, and parameter
checking.  The predecode slot memo that makes replicas cheap is tested
in ``test_slot_memo.py``."""

import json
import os

import pytest

from repro.bench.sweep import (
    Sweep,
    cell_label,
    diverging_cells,
    run_sweep,
    strip_volatile,
    sweep_scenario,
)

#: Cheap deterministic scenario: no simulation, just echoes its inputs.
@sweep_scenario("_test_echo", x=0, y=1)
def _echo(params, seed):
    return {"x": params["x"], "y": params["y"], "seed": seed,
            "product": params["x"] * params["y"],
            "digest": {"x": params["x"], "seed": seed}}


@sweep_scenario("_test_fail_on", x=0, poison=None)
def _fail_on(params, seed):
    if params["x"] == params["poison"]:
        raise RuntimeError("poisoned cell x=%r" % params["x"])
    return {"x": params["x"], "digest": {"x": params["x"]}}


@sweep_scenario("_test_interrupt_on", x=0, stop_at=None)
def _interrupt_on(params, seed):
    if params["x"] == params["stop_at"]:
        raise KeyboardInterrupt()
    return {"x": params["x"], "digest": {"x": params["x"]}}


@sweep_scenario("_test_crash_on", x=0, poison=None)
def _crash_on(params, seed):
    if params["x"] == params["poison"]:
        os._exit(13)  # kill the pool worker outright
    return {"x": params["x"], "digest": {"x": params["x"]}}


class TestGrid:
    def test_cells_are_the_cartesian_product_in_grid_order(self):
        sweep = Sweep(scenario="_test_echo",
                      grid={"x": [1, 2], "y": [10, 20, 30]},
                      fixed={"z": 7})
        cells = sweep.cells()
        assert len(cells) == 6
        assert cells[0] == {"x": 1, "y": 10, "z": 7}
        assert cells[1] == {"x": 1, "y": 20, "z": 7}
        assert cells[-1] == {"x": 2, "y": 30, "z": 7}

    def test_empty_grid_is_one_cell(self):
        sweep = Sweep(scenario="_test_echo", fixed={"x": 1})
        assert sweep.cells() == [{"x": 1}]

    def test_replica_seeds_pairwise_distinct_across_the_grid(self):
        # The satellite regression at sweep scope: every (cell, replica)
        # seed across a replica grid is distinct -- no seed+offset
        # aliasing between a cell's replica j and its neighbour's j-1.
        sweep = Sweep(scenario="_test_echo", grid={"x": list(range(6))},
                      replicas=4)
        seeds = sweep.seeds()
        flat = [seed for cell in seeds for seed in cell]
        assert len(flat) == 24
        assert len(set(flat)) == 24

    def test_seeds_deterministic_for_base_seed(self):
        sweep = Sweep(scenario="_test_echo", grid={"x": [1, 2]},
                      replicas=3, base_seed=42)
        twin = Sweep(scenario="_test_echo", grid={"x": [1, 2]},
                     replicas=3, base_seed=42)
        other = Sweep(scenario="_test_echo", grid={"x": [1, 2]},
                      replicas=3, base_seed=43)
        assert sweep.seeds() == twin.seeds()
        assert sweep.seeds() != other.seeds()

    def test_cell_label(self):
        assert cell_label({"voltage": 0.6, "ber": 0.02}) \
            == "voltage=0.6,ber=0.02"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep scenario"):
            run_sweep(Sweep(scenario="_no_such_scenario"))


class TestSerialSweep:
    def test_cells_and_aggregates(self):
        sweep = Sweep(scenario="_test_echo",
                      grid={"x": [1, 2], "y": [10, 20]}, replicas=2)
        result = run_sweep(sweep)
        assert len(result.cells) == 4
        assert not result.failed_cells
        cell = result.cells[0]
        assert cell["params"] == {"x": 1, "y": 10}
        assert len(cell["replicas"]) == 2
        # Replicas differ only in seed; x/y/product aggregate exactly.
        assert cell["aggregates"]["product"] == {
            "mean": 10.0, "min": 10, "max": 10}
        seeds = cell["aggregates"]["seed"]
        assert seeds["min"] != seeds["max"]

    def test_payload_shape(self):
        result = run_sweep(Sweep(scenario="_test_echo", grid={"x": [1]}))
        payload = result.payload()
        assert payload["schema"] == "repro.bench.sweep/1"
        assert payload["cells_total"] == 1
        assert payload["cells_ok"] == 1
        assert payload["cells_failed"] == 0
        json.dumps(payload)  # JSON-clean all the way down

    def test_scenario_exception_is_one_failed_cell(self):
        sweep = Sweep(scenario="_test_fail_on",
                      grid={"x": [1, 2, 3]}, fixed={"poison": 2})
        result = run_sweep(sweep)
        assert len(result.ok_cells) == 2
        (failed,) = result.failed_cells
        assert failed["index"] == 1
        assert "poisoned cell x=2" in failed["error"]
        json.dumps(result.payload())

    def test_keyboard_interrupt_preserves_completed_cells(self):
        sweep = Sweep(scenario="_test_interrupt_on",
                      grid={"x": [1, 2, 3, 4]}, fixed={"stop_at": 3})
        result = run_sweep(sweep)
        assert result.interrupted
        assert [cell["index"] for cell in result.ok_cells] == [0, 1]
        for cell in result.cells[2:]:
            assert not cell.get("ok")
            assert cell["error"] == "interrupted"


class TestPooledSweep:
    def test_pooled_matches_serial_bit_for_bit(self):
        sweep = Sweep(scenario="voltage_point",
                      grid={"voltage": [1.8, 0.6]}, replicas=2)
        serial = run_sweep(sweep, workers=1)
        pooled = run_sweep(sweep, workers=4)
        assert not serial.failed_cells and not pooled.failed_cells
        assert diverging_cells(serial, pooled) == []
        # The aggregated JSON matches too, modulo host wall-time fields.
        assert strip_volatile(serial.payload()) \
            == strip_volatile(pooled.payload())

    def test_worker_crash_is_confined_to_its_cell(self):
        # The poisoned worker dies with os._exit; the pool breaks, the
        # already-completed cells keep their results, and the loss is
        # reported per-cell instead of taking down the sweep.
        sweep = Sweep(scenario="_test_crash_on",
                      grid={"x": [1, 2, 3, 4]}, fixed={"poison": 4})
        result = run_sweep(sweep, workers=2)
        assert [cell["index"] for cell in result.ok_cells] == [0, 1, 2]
        (failed,) = result.failed_cells
        assert failed["index"] == 3
        assert failed["error"]
        json.dumps(result.payload())

    def test_diverging_cells_reports_the_difference(self):
        base = Sweep(scenario="_test_echo", grid={"x": [1, 2]},
                     base_seed=0)
        other = Sweep(scenario="_test_echo", grid={"x": [1, 2]},
                      base_seed=99)
        a = run_sweep(base)
        b = run_sweep(other)
        divergences = diverging_cells(a, b)
        assert [index for index, _, _ in divergences] == [0, 1]
        assert all(digest_a != digest_b
                   for _, digest_a, digest_b in divergences)


class TestSweepCli:
    def test_grid_parsing(self):
        from repro.tools.snap_sweep import parse_grid
        grid = parse_grid(["voltage=0.6,1.8", "n=3", "mode=flip"])
        assert grid == {"voltage": [0.6, 1.8], "n": [3],
                        "mode": ["flip"]}
        with pytest.raises(ValueError):
            parse_grid(["novalue"])

    def test_end_to_end_with_dump(self, tmp_path, capsys):
        from repro.tools.snap_sweep import main
        report = tmp_path / "report.json"
        code = main(["_test_echo", "--grid", "x=1,2", "--fixed", "y=5",
                     "--replicas", "2", "--serial-check",
                     "--json", str(report),
                     "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        payload = json.loads(report.read_text())
        assert payload["cells_ok"] == 2
        assert payload["serial_check"]["identical"] is True
        dump = json.loads((tmp_path / "BENCH_SWEEP.json").read_text())
        assert dump["benchmark"] == "SWEEP"
        assert dump["results"]["serial_check"]["identical"] is True

    def test_failed_cell_sets_exit_code(self, tmp_path, capsys):
        from repro.tools.snap_sweep import main
        code = main(["_test_fail_on", "--grid", "x=1,2",
                     "--fixed", "poison=2"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["chain_ber", "--grid", "nosuch=1"], "no parameter 'nosuch'"),
        (["chain_ber", "--fixed", "nosuch=1"], "no parameter 'nosuch'"),
        (["chain_ber", "--grid", "voltage=abc"],
         "'voltage' of scenario 'chain_ber' must be a number"),
        (["chain_ber", "--grid", "voltage=0.6,abc"], "not 'abc'"),
        (["chain_ber", "--fixed", "packets=many"], "'packets'"),
    ])
    def test_bad_parameter_is_a_usage_error_before_any_cell(
            self, argv, message, capsys, monkeypatch):
        from repro.bench import sweep
        from repro.tools.snap_sweep import main
        ran = []
        monkeypatch.setattr(sweep, "run_cell", ran.append)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert ran == []

    def test_run_sweep_checks_parameters_too(self):
        with pytest.raises(ValueError, match="no parameter 'z'"):
            run_sweep(Sweep(scenario="_test_echo", fixed={"z": 7}))
        with pytest.raises(ValueError, match="must be a number"):
            run_sweep(Sweep(scenario="_test_echo", grid={"x": ["1"]}))

    def test_declared_defaults_reach_the_scenario(self):
        result = run_sweep(Sweep(scenario="_test_echo", grid={"x": [3]}))
        (replica,) = result.cells[0]["replicas"]
        assert (replica["y"], replica["product"]) == (1, 3)
        assert result.cells[0]["params"] == {"x": 3}


COMMITTED_SWEEP = os.path.join(os.path.dirname(__file__), os.pardir,
                               "BENCH_SWEEP.json")


class TestCommittedSweep:
    def test_committed_cell_digests_reproduce(self):
        """Re-run the committed ``BENCH_SWEEP.json`` grid serially: every
        cell digest must equal the committed one (the oracle for any
        change to the scenarios the sweep runs)."""
        with open(COMMITTED_SWEEP) as handle:
            committed = json.load(handle)["results"]
        sweep = Sweep(scenario=committed["scenario"],
                      grid=committed["grid"], fixed=committed["fixed"],
                      replicas=committed["replicas"],
                      base_seed=committed["base_seed"])
        result = run_sweep(sweep, workers=1)
        assert result.digests() == {cell["index"]: cell["digest"]
                                    for cell in committed["cells"]}
