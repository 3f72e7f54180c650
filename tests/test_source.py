"""Static checks on the package source (no linter is assumed installed)."""

import ast
import dataclasses
import glob
import os
import subprocess
import sys

import sfde
from sfde.config import LossWeights, ModelConfig, TrainConfig

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


def unread_private_names(sources):
    """`_private` names bound at the top level of any module in `sources`
    ({module: text}) that no module in `sources` reads, by name or as an
    attribute. Dunder names are exempt."""
    bound, read = [], set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            bound += [(module, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return sorted(f"{module}: {name}" for module, name in bound
                  if name not in read)


def test_unread_private_name_detector():
    sources = {
        "a": ("_used = 1\n_dead, x = 2, 3\n__all__ = []\n"
              "def _helper():\n    return _used\nclass _Kept:\n    pass\n"),
        "b": "import a\na._Kept()\na._dead = 4\n_own: int = 0\nprint(_own)\n"}
    assert unread_private_names(sources) == ["a: _dead", "a: _helper"]


def test_every_private_module_name_is_read():
    sources = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    assert unread_private_names(sources) == []


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


def metadata_reads(text):
    """Line numbers where `text` reads an attribute named `metadata`."""
    return sorted(n.lineno for n in ast.walk(ast.parse(text))
                  if isinstance(n, ast.Attribute) and n.attr == "metadata")


def test_metadata_read_detector():
    text = "x = f.metadata\nf.metadata.get('min')\ny = metadata\n"
    assert metadata_reads(text) == [1, 2]


def test_only_config_reads_field_metadata():
    """The field rules (type, bounds, choices) are applied in `config.py`
    alone, so a config file, a `RunConfig` and a checkpoint header meet the
    same rules."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "config.py":
            continue
        with open(path) as fh:
            lines = metadata_reads(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert not found


def test_every_numeric_config_field_has_a_lower_bound():
    missing = [f"{section.__name__}.{f.name}"
               for section in (ModelConfig, TrainConfig, LossWeights)
               for f in dataclasses.fields(section)
               if type(f.default) in (int, float, tuple)
               and "min" not in f.metadata]
    assert missing == []
