"""What the package imports, and what importing one of its modules loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Top-level names of every absolute import in src/fedfog. A change that adds
# one updates this set and says why in CHANGES.md: the benchmark's oracle
# timings move with the set of modules the process has loaded.
IMPORTED_MODULES = {
    "__future__", "argparse", "contextlib", "csv", "dataclasses",
    "functools", "hashlib", "io", "json", "math", "mmap", "numpy", "os",
    "pickle", "signal", "struct", "sys", "tempfile", "traceback", "typing",
    "weakref", "yaml"}


def test_absolute_imports_are_pinned():
    names = set()
    for path in sorted((SRC / "fedfog").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    assert names == IMPORTED_MODULES


def test_submodule_import_loads_neither_harness_nor_yaml():
    # the package namespace re-exports nothing, so importing one submodule
    # runs only that module's own imports
    code = ("import sys, fedfog.env; "
            "print(sorted({'fedfog.harness', 'yaml'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
