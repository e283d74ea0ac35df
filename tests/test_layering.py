"""Package layering: the CLIs and the benchmark harness sit on top.

``repro.tools`` (the CLIs) may only be imported from inside
``repro/tools``; ``repro.bench`` only from ``repro/bench``,
``repro/tools`` and ``repro/report``.  Everything the simulator needs
(the scenario catalogue, ``meter_digest``) lives below them.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

#: Protected package -> the top-level ``repro`` subpackages that may
#: import it.
ALLOWED = {
    "repro.tools": {"tools"},
    "repro.bench": {"bench", "tools", "report"},
}


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            yield node.lineno, node.module


def layering_violations(root=SRC):
    violations = []
    for dirpath, _, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, root)
            package = relative.split(os.sep)[0]
            with open(path) as handle:
                tree = ast.parse(handle.read(), filename=path)
            for lineno, module in _imports(tree):
                for protected, allowed in ALLOWED.items():
                    if (module == protected
                            or module.startswith(protected + ".")) \
                            and package not in allowed:
                        violations.append("%s:%d imports %s"
                                          % (relative, lineno, module))
    return sorted(violations)


def test_no_upward_imports():
    assert layering_violations() == []


def test_scan_sees_a_violation(tmp_path):
    """The scan is not vacuous: a planted upward import is reported."""
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "bad.py").write_text(
        "def f():\n    from repro.bench.simspeed import meter_digest\n")
    assert layering_violations(str(tmp_path)) == \
        ["sim/bad.py:2 imports repro.bench.simspeed"]
