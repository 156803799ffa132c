"""No module under src/stst imports a name it never uses.

__init__.py is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stst"

# imported but unused: perfbench/layers.py wraps these by their names in
# these modules (ROADMAP item 18 moves those bindings and empties this set)
PERFBENCH_BOUND = {
    ("cli", "prefix_score_matrix"),
    ("cli", "attentive_from_prefix"),
    ("cli", "full_from_prefix"),
    ("calibration", "term_matrix"),
    ("bench", "prefix_score_matrix"),
    ("bench", "attentive_from_prefix"),
    ("bench", "budgeted_from_prefix"),
    ("bench", "full_from_prefix"),
    ("bench", "measure_stop_error"),
}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_unused_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found.update((path.stem, name) for name in unused_imports(tree))
    assert found - PERFBENCH_BOUND == set(), "imported names never used"
    assert PERFBENCH_BOUND - found == set(), "used now, or gone: drop them from PERFBENCH_BOUND"


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom a.b import c, d\n__all__ = ['d']\nnp.zeros(1)\n")
    assert unused_imports(tree) == {"os", "c"}
