import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "boxrep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, as a name or an attribute base."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_attribute_bases_and_unused_names():
    source = "import numpy as np\nfrom math import pi, tau\nx = np.zeros(pi)\n"
    assert unused_imports(source) == ["line 2: tau"]
