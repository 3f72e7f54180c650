"""Static checks on the package source (no linter is assumed installed)."""

import ast
import glob
import os
import subprocess
import sys

import sfde

SRC = os.path.dirname(os.path.abspath(sfde.__file__))


def unused_imports(text):
    """Names bound by import statements that the module never reads.
    `from __future__` imports are exempt."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in read)


def test_unused_import_detector():
    text = ("from __future__ import annotations\n"
            "import os\nimport numpy as np\nfrom x import a, b as c\n"
            "np.zeros(a)\n")
    assert unused_imports(text) == ["line 2: os", "line 4: c"]


def test_no_unused_imports_in_package():
    """`__init__.py` is exempt: its imports are re-exports."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            unused = unused_imports(fh.read())
        if unused:
            found[os.path.basename(path)] = unused
    assert not found


def test_entry_points_do_not_import_scipy():
    """The runtime needs only numpy: importing the command line, training
    and the self-test in a fresh interpreter loads no scipy module."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import sfde.cli, sfde.train, sfde.selftest; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", probe, os.path.dirname(SRC)],
                       capture_output=True, text=True, timeout=120,
                       check=True)
    assert r.stdout.strip() == "[]"
