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


def unread_parameters(text):
    """`line N: function.parameter` for each parameter of a function or
    lambda in `text` that its body never reads; a read in a nested function
    counts. A method's `self` and dunder methods are exempt."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
            if name.startswith("__") and name.endswith("__"):
                continue
        elif isinstance(node, ast.Lambda):
            name, body = "<lambda>", [node.body]
        else:
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, f"{name}.{p.arg}") for p in params
                  if p.arg not in read and p.arg != "self"]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_unread_parameter_detector():
    text = ("def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
            "class T:\n    def __exit__(self, *exc):\n        pass\n"
            "    def m(self, x, y):\n        def inner(z):\n"
            "            return x\n        return inner\n"
            "g = lambda t, u: t\n")
    assert unread_parameters(text) == [
        "line 1: f.args", "line 1: f.b", "line 1: f.c", "line 6: m.y",
        "line 7: inner.z", "line 10: <lambda>.u"]


def test_every_parameter_is_read():
    """No function or lambda in the package takes a parameter it ignores.
    Dunder methods (`Tape.__exit__`) and the self-test's checks, which
    share one `check(rng)` signature, are exempt."""
    from sfde.selftest import PROPERTIES
    checks = {check.__name__ for _, check in PROPERTIES}
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            unread = [u for u in unread_parameters(fh.read())
                      if not (os.path.basename(path) == "selftest.py"
                              and u.split(": ")[1].split(".")[0] in checks)]
        if unread:
            found[os.path.basename(path)] = unread
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


def multi_output_records(text):
    """Line numbers of `record(...)` calls whose first argument, the op's
    output, is a list or tuple literal."""
    return sorted(
        n.lineno for n in ast.walk(ast.parse(text))
        if isinstance(n, ast.Call) and n.args
        and isinstance(n.args[0], (ast.List, ast.Tuple))
        and (getattr(n.func, "id", None) == "record"
             or getattr(n.func, "attr", None) == "record"))


def test_multi_output_record_detector():
    text = ("record(out, [x], f)\nrecord([out], [x], f)\n"
            "autodiff.record((a, b), [x], f)\nconcat([a, b])\n")
    assert multi_output_records(text) == [2, 3]


def test_every_taped_op_has_one_output():
    """A spectrum is one complex tensor, so no op records two outputs and
    the tape replays exactly one output gradient per record."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            lines = multi_output_records(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert not found


def cross_module_rebinds(text):
    """Line numbers where `text` assigns to, deletes or `setattr`s an
    attribute reached from a name it imported from the `sfde` package
    (relatively or by name)."""
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "sfde"):
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names
                            if a.name.split(".")[0] == "sfde")

    def is_imported(n):
        while isinstance(n, ast.Attribute):
            n = n.value
        return isinstance(n, ast.Name) and n.id in imported

    return sorted(
        n.lineno for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and is_imported(n.value)
            and isinstance(n.ctx, (ast.Store, ast.Del)))
        or (isinstance(n, ast.Call) and getattr(n.func, "id", None)
            in ("setattr", "delattr") and n.args and is_imported(n.args[0])))


def test_cross_module_rebind_detector():
    text = ("from . import spectral\nfrom .autodiff import Tensor as T\n"
            "import sfde.ops\nimport numpy as np\n"
            "spectral.irfft2 = None\nT.x += 1\nsfde.ops.y = 2\n"
            "np.z = 3\nsetattr(spectral, 'k', 4)\ndel T.x\n"
            "spectral.x.y = 5\nlocal = spectral.irfft2\nlocal.z = 6\n")
    assert cross_module_rebinds(text) == [5, 6, 7, 9, 10, 11]


def test_no_module_rebinds_another():
    """A module changes no other module's globals or classes: a fault is
    injected from outside the package (a test's `monkeypatch`), never
    through a switch that the shipped code carries."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            lines = cross_module_rebinds(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert not found


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


STORE_BOUNDS = ("MAX_CLASS_ID", "MAX_ID_BYTES")


def store_bound_reads(text):
    """Line numbers where `text` imports or reads `MAX_CLASS_ID` or
    `MAX_ID_BYTES`, by name or as an attribute."""
    found = set()
    for n in ast.walk(ast.parse(text)):
        if isinstance(n, ast.ImportFrom):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.Name):
            names = [n.id]
        elif isinstance(n, ast.Attribute):
            names = [n.attr]
        else:
            continue
        if set(names) & set(STORE_BOUNDS):
            found.add(n.lineno)
    return sorted(found)


def test_store_bound_read_detector():
    """The snippet is a class-range check of the kind `data.ingest` once
    held beside the record rule."""
    text = ("from .retrieval import MAX_CLASS_ID, VIEW_CODES\n"
            "from . import retrieval\n"
            "if not 0 <= class_id <= MAX_CLASS_ID:\n"
            "    raise DataError('outside')\n"
            "n = retrieval.MAX_ID_BYTES\n"
            "s = 'MAX_ID_BYTES'\n")
    assert store_bound_reads(text) == [1, 3, 5]


def test_only_retrieval_reads_the_store_bounds():
    """The store's id and class bounds are applied by the one record rule
    in `retrieval.py`, which a manifest entry, an ingested directory and a
    saved record all meet."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "retrieval.py":
            continue
        with open(path) as fh:
            lines = store_bound_reads(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert not found


CONCURRENCY_MODULES = ("threading", "_thread", "concurrent", "multiprocessing")


def concurrency_imports(text):
    """Line numbers of absolute imports of `threading`, `_thread`,
    `concurrent` or `multiprocessing`, or of any of their submodules."""
    found = []
    for n in ast.walk(ast.parse(text)):
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom) and not n.level:
            names = [n.module]
        else:
            continue
        if any(name.split(".")[0] in CONCURRENCY_MODULES for name in names):
            found.append(n.lineno)
    return sorted(found)


def test_concurrency_import_detector():
    text = ("import os\nimport threading\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "import numpy as np, multiprocessing.pool as mp\n"
            "from concurrent import futures\nfrom . import threading_x\n"
            "import threadingx\nimport _thread\n")
    assert concurrency_imports(text) == [2, 3, 4, 5, 8]


def test_only_train_imports_concurrency():
    """Threads, thread pools and processes are started in `train.py` alone
    (the decode-ahead of `extract_embeddings` and the distances-CSV writer
    of `write_reports`), so no model code runs off the calling thread
    unnoticed."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "train.py":
            continue
        with open(path) as fh:
            lines = concurrency_imports(fh.read())
        if lines:
            found[os.path.basename(path)] = lines
    assert not found


def sfde_bindings(tree, module=None):
    """{local name: module, or (module, function)} for each name `tree`
    binds from the sfde package; in package module `module`, its own
    top-level functions too."""
    names = {}
    if module is not None:
        names.update((n.name, (module, n.name)) for n in tree.body
                     if isinstance(n, ast.FunctionDef))
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (
                n.level or (n.module or "").split(".")[0] == "sfde"):
            home = (n.module or "") if n.level else n.module[len("sfde."):]
            for a in n.names:
                names[a.asname or a.name] = (home, a.name) if home else a.name
        elif isinstance(n, ast.Import):
            names.update((a.asname, a.name[len("sfde."):]) for a in n.names
                         if a.name.startswith("sfde.") and a.asname)
    return names


def unpassed_keywords(sources, callers):
    """`module.function.parameter` for each defaulted parameter of a
    top-level function in `sources` ({module: text}) that no call in
    `sources` or `callers` (texts outside the package) passes, by name or
    position. A call counts when it names the function through what its
    file binds from sfde; a `*` or `**` argument passes every parameter."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    passed = {}
    for module, tree in [*trees.items(),
                         *((None, ast.parse(t)) for t in callers)]:
        names = sfde_bindings(tree, module)
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            if isinstance(f, ast.Name):
                target = names.get(f.id)
            elif (isinstance(f, ast.Attribute)
                  and isinstance(f.value, ast.Name)
                  and isinstance(names.get(f.value.id), str)):
                target = (names[f.value.id], f.attr)
            else:
                continue
            if isinstance(target, tuple):
                args = passed.setdefault(target, set())
                args.update(range(len(n.args)))
                args.update("*" for a in n.args if isinstance(a, ast.Starred))
                args.update(k.arg or "*" for k in n.keywords)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            a, args = node.args, passed.get((module, node.name), set())
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            found += [f"{module}.{node.name}.{p.arg}"
                      for i, p in enumerate(positional[first:], start=first)
                      if not {i, p.arg, "*"} & args]
            found += [f"{module}.{node.name}.{p.arg}"
                      for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None and not {p.arg, "*"} & args]
    return sorted(found)


def test_unpassed_keyword_detector():
    sources = {
        "a": ("def f(x, y=1, *, z=2, w=3):\n    return x, y, z, w\n"
              "def g(p=0, q=1):\n    return p, q\n"
              "def k(r=0):\n    return r\n"
              "def m(s=0):\n    return s\n"
              "f(0, 1)\n"),
        "b": ("from . import a\nfrom .a import g as h\n"
              "a.f(0, z=1)\nh(1)\na.m(**{})\n")}
    callers = ["from sfde.a import f\nimport other\n"
               "f(0, w=1)\nother.g(1, 2)\ng(q=2)\nk(1)\n"]
    assert unpassed_keywords(sources, callers) == ["a.g.q", "a.k.r"]


def test_every_defaulted_keyword_is_passed_somewhere():
    """A defaulted parameter of a package function that no shipped caller
    (the package, `perfbench/` or `scripts/`) ever passes is a constant in
    name only, so it is a module constant instead. Tests are not callers."""
    sources = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            sources[os.path.basename(path)[:-3]] = fh.read()
    root = os.path.dirname(os.path.dirname(SRC))
    callers = []
    for path in sorted(glob.glob(os.path.join(root, "perfbench", "*.py"))
                       + glob.glob(os.path.join(root, "scripts", "*.py"))):
        with open(path) as fh:
            callers.append(fh.read())
    assert callers
    assert unpassed_keywords(sources, callers) == []
