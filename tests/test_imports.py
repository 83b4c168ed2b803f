"""Every name a module imports is read in that module.

No linter ships with the test dependencies, so this is the unused-import
check: each name an `import` binds in `src/iosfd/*.py` (bar `__init__.py`,
which re-exports), `tests/*.py` and `tools/*.py` must be read as a `Name`
somewhere in the same module.  An import line marked `# noqa: F401` is
exempt, for a name bound only so that something outside the module finds it.
`perfbench/` is left out.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checked_modules() -> list[Path]:
    return sorted(path for pattern in ("src/iosfd/*.py", "tests/*.py", "tools/*.py")
                  for path in ROOT.glob(pattern) if path.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "import sys  # noqa: F401\nfrom json import (dumps,\n    loads as parse)\n"
              "print(parse, os)\n")
    assert unused_imports(source) == [(5, "dumps")]
    assert unused_imports("import numpy as np\nimport pytest\n") == [(1, "np"), (2, "pytest")]


def test_every_import_is_read():
    modules = checked_modules()
    assert len(modules) > 30
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in modules for line, name in unused_imports(path.read_text())]
    assert unused == []
