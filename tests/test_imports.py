import ast
from collections import Counter
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


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _reads(node: ast.AST) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _unread_names(sources: dict[str, str], checked) -> list[str]:
    """Module-level functions, classes and constants named so that
    checked(name) holds, which no module reads, as a name or an attribute,
    outside their own definition."""
    trees = {name: ast.parse(text) for name, text in sorted(sources.items())}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, node in _top_level_names(tree)
            if checked(name) and reads[name] == _reads(node)[name]]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`_`-prefixed names that no module reads."""
    return _unread_names(
        sources, lambda name: name.startswith("_") and not name.startswith("__"))


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Public names that no module reads and `__init__.py` does not export."""
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(sources["__init__.py"]))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return _unread_names(
        sources, lambda name: not name.startswith("_") and name not in exported)


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def test_no_unread_public_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_public_names(sources) == []


def test_dead_code_guard_sees_attribute_reads_and_skips_self_reads():
    sources = {
        "a.py": ("_USED = 1\n_DEAD = 2\n__all__ = []\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Base:\n    pass\n"
                 "def _helper():\n    pass\n"),
        "b.py": "import a\nclass C(a._Base):\n    f = a._helper\nprint(_USED)\n",
    }
    assert unread_private_names(sources) == ["a.py: _DEAD", "a.py: _recursive"]


def test_public_guard_skips_exports_and_names_read_elsewhere():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported():\n    pass\n"
                 "def used():\n    pass\n"
                 "def dead():\n    return dead\n"
                 "LIMIT = 3\n"),
        "b.py": "from .a import used\nused()\n",
    }
    assert unread_public_names(sources) == ["a.py: dead", "a.py: LIMIT"]
