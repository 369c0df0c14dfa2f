"""Module boundaries: no module imports another module's private names."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the pair descriptor's per-window kernel, shared by evaluate and cbd so
# both reuse smoothed states; it keeps its name for the benchmark tracer
ALLOWED = {"_pid_from_states"}


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("proxrf"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__") and name not in ALLOWED:
                yield f"{path.relative_to(ROOT)}:{node.lineno} imports {name}"


def test_no_private_imports_across_modules():
    paths = sorted((ROOT / "src" / "proxrf").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in _private_imports(path)]
    assert found == []
