"""Every name a module imports at its top level is used or exported, and
the CLI starts without the numpy-backed sweeps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/spillkit/*.py"), *ROOT.glob("tests/*.py")])

# (module, name) pairs imported for another module's sake
KEPT = {
    # perfbench/spans.py wraps cli.validate to time validation
    ("src/spillkit/cli.py", "validate"),
}


def unused_imports(tree):
    """The names the module's top-level imports bind that no expression
    reads and `__all__` does not list; `__future__` imports excluded."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return bound - used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    rel = str(path.relative_to(ROOT))
    unused = unused_imports(ast.parse(path.read_text(), str(path)))
    assert {(rel, name) for name in unused} <= KEPT, sorted(unused)


def test_kept_names_are_still_imported_and_unused():
    for rel, name in KEPT:
        assert name in unused_imports(ast.parse((ROOT / rel).read_text()))


def test_cli_start_up_leaves_numpy_and_the_sweeps_out():
    """`import spillkit` is all the CLI workloads' set-up time measures."""
    code = ("import sys, spillkit, spillkit.cli; "
            "print(sorted({'numpy', 'spillkit.sweeps'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
