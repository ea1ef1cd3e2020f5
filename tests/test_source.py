"""Static checks on the package source."""

import ast
import importlib.util
from collections import defaultdict
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


# where a name of the package counts as used: the package itself, the
# benchmark that drives it, and the acceptance suite
CALLERS = [*sorted(SRC.glob("*.py")),
           *(ROOT / "perfbench" / f"{name}.py" for name in ("spans", "workloads", "run", "worker")),
           ROOT / "tests" / "test_acceptance.py"]


def _definitions(path):
    """(name, first line, last line) of every top-level function and
    class of a module and every non-dunder method of its classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item.lineno, item.end_lineno


def _references(path):
    """(name, line) of every Name, Attribute, import alias and string
    constant in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_src_name_has_a_caller():
    """Every function, class and method of the package is referenced
    somewhere outside its own definition by the package, the benchmark or
    the acceptance suite: code that only unit tests reach is dead code
    with a test."""
    refs = defaultdict(list)  # name -> (file, line) of every reference
    for path in CALLERS:
        for name, line in _references(path):
            refs[name].append((path, line))
    unused = [f"{path.name}:{first} {name}"
              for path in sorted(SRC.glob("*.py"))
              for name, first, last in _definitions(path)
              if all(where == path and first <= line <= last for where, line in refs[name])]
    assert not unused, unused
