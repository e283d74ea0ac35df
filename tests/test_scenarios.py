"""The scenario catalogue: spec parsing and the CLIs that share it."""

import pytest

from repro.scenarios import CATALOGUE, resolve
from repro.sim.differential import main as differential_main
from repro.tools.snap_energy import main as snap_energy_main

SORTED_NAMES = ", ".join(sorted(CATALOGUE))


class TestResolve:
    def test_engine_defaults_to_fast(self):
        assert resolve("blink") == ("blink", True)

    def test_explicit_engines(self):
        assert resolve("sti:fast") == ("sti", True)
        assert resolve("sti:ref") == ("sti", False)

    def test_unknown_name_lists_the_sorted_catalogue(self):
        with pytest.raises(ValueError) as error:
            resolve("nope")
        assert "unknown scenario 'nope' (have: %s)" % SORTED_NAMES \
            in str(error.value)

    @pytest.mark.parametrize("spec", ["blink:slow", "blink:fast:ref"])
    def test_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            resolve(spec)


class TestOneCatalogueEverywhere:
    """The CLIs resolve names against the same catalogue and report an
    unknown one with the same sorted list (snap-diff: ``test_diff``)."""

    def test_differential_cli(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            differential_main(["--scenarios", "blink,nope"])
        assert exit_info.value.code == 2
        assert SORTED_NAMES in capsys.readouterr().err

    def test_snap_energy(self, capsys):
        assert snap_energy_main(["nope"]) == 2
        assert SORTED_NAMES in capsys.readouterr().err
