"""Every module-level import under src/gpd is used by its module, and
every private helper has a caller.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Underscore-prefixed module-level functions and ``_Kernel`` methods
    (dunders aside) that no name or attribute in ``sources`` refers to
    outside the helper's own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    helpers = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "_Kernel":
                helpers += [(name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                helpers.append((name, node))
    refs = [(name, n.lineno, n.id if isinstance(n, ast.Name) else n.attr)
            for name, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]
    return sorted(
        f"{name}:{node.name}" for name, node in helpers
        if not node.name.startswith("__")
        and not any(ident == node.name and not (f == name and node.lineno <= line <= node.end_lineno)
                    for f, line, ident in refs)
    )


def test_dead_helper_checker_flags_uncalled_helpers():
    src = ("def _used():\n    pass\n\n\ndef _dead():\n    return _dead()\n\n\n"
           "class _Kernel:\n    def __init__(self):\n        self.rows()\n\n"
           "    def rows(self):\n        pass\n\n    def star_rows(self):\n        pass\n\n\n"
           "_used()\n")
    assert dead_helpers({"m.py": src}) == ["m.py:_dead", "m.py:star_rows"]
    assert dead_helpers({"a.py": "def _f():\n    pass\n", "b.py": "from a import _f\n_f()\n"}) == []


def test_no_dead_private_helpers():
    assert dead_helpers({p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}) == []


def test_one_verdict_class():
    assert gpd.report.Verdict is gpd.operators.Verdict
    defs = [p.name for p in SRC.glob("*.py")
            if "class Verdict" in p.read_text(encoding="utf-8")]
    assert defs == ["operators.py"]


def test_every_traced_name_is_a_callable_of_its_layer():
    # the benchmark's tracer wraps gpd.<layer>.<name> and reports a missing
    # name as absent, so a rename here would blank its metrics
    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}" for layer, names in tracing.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"gpd.{layer}"), name, None))]
    assert tracing.TARGETS and missing == []


# gpd monoid, rep and verify --props CLOSING on C4, in one fresh interpreter;
# np.unique's first call imports numpy.ma, which a full verify needs and these
# three commands do not
NO_MASKED_ARRAYS = """
import sys, tempfile, os
from gpd import corpus, io
from gpd.cli import main
with tempfile.TemporaryDirectory() as tmp:
    path, out = os.path.join(tmp, "c4.json"), os.path.join(tmp, "out.json")
    io.save_groupoid(path, corpus.cyclic(4))
    for argv in (["monoid", path], ["rep", path], ["verify", path, "--props", "CLOSING"]):
        for side in (["--side", "S"], ["--side", "S'"]) if argv[0] != "verify" else ([],):
            assert main([*argv, *side, "-o", out]) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_monoid_rep_and_closing_never_import_masked_arrays():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
