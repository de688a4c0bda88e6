"""Every module-level import under src/gpd is used by its module.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import gpd
import gpd.operators
import gpd.report

SRC = Path(gpd.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_checker_flags_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_one_verdict_class():
    assert gpd.report.Verdict is gpd.operators.Verdict
    defs = [p.name for p in SRC.glob("*.py")
            if "class Verdict" in p.read_text(encoding="utf-8")]
    assert defs == ["operators.py"]
