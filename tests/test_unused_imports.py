"""Every module-level import in src/starcone/ is used by its module.

Deleting a code path tends to leave its imports behind; this parses each
module except __init__.py (whose imports are the package's API) with ast
and names every module-level import that nothing in the module reads."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "starcone"


def unused_imports(source: str) -> list:
    """The names bound by module-level imports of source that no name (an
    attribute's base included) reads, in the code or in a quoted
    annotation, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    annotations = [a for node in ast.walk(tree) for a in (
        [node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else
        [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign)) else []) if a is not None]
    quoted = [ast.parse(c.value, mode="eval") for a in annotations for c in ast.walk(a)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]  # such as -> "Dict"
    used = {node.id for root in [tree, *quoted] for node in ast.walk(root) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_module_imports(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []


def test_unused_imports_by_hand():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom typing import Optional, Dict\n" \
             "def f(x: Optional[int]) -> 'Dict':\n    return os.path.join(x)\n"
    assert unused_imports(source) == ["json"]
