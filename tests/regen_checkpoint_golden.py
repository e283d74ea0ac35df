"""Regenerate ``tests/goldens/checkpoint_v2.json``.

Run deliberately, only alongside a checkpoint schema version bump::

    PYTHONPATH=src python -m tests.regen_checkpoint_golden

The golden is the checkpoint of the ``sti`` catalogue scenario
(timer-driven self-modifying code -- it exercises predecode validity,
armed timers, and handler state) captured at t=0.02 s, exactly as
``tests/test_checkpoint.py::TestSchemaVersioning::test_golden_schema_v2``
rebuilds it.
"""

import os

from repro.scenarios import CATALOGUE, run_to
from repro.sim.checkpoint import capture

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "checkpoint_v2.json")


def main():
    node, _ = CATALOGUE["sti"](True)
    run_to(node, 0.02)
    capture(node).save(GOLDEN)
    print("wrote %s" % GOLDEN)


if __name__ == "__main__":
    main()
