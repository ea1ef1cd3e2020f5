"""Static checks on the package source."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "edgepir"


def test_no_assert_statements():
    """Validation raises typed errors; ``assert`` vanishes under -O."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_traced_benchmark_names_exist():
    """The traced benchmark wraps library functions by name; its tracer
    looks every one of them up when it is built, so a deleted or renamed
    name fails here rather than in a benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert all(callable(fn) for fn in spans.Tracer()._originals.values())
