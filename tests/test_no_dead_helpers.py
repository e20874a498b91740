"""Every top-level def, class and constant in gorlef, public or private
(dunders aside), has a reader in gorlef, so does every method,
classmethod and property of a public class, no module but `__init__.py`
imports a name it never references, and `__init__.py` exports exactly
the names it imports.

A name that only `__init__.py` re-exports, or only the tests call, is a
helper that no CLI command or verifier reaches; tests that need such a
routine as an independent reference keep it in tests/oracles.py.  The
three paper checks that the acceptance tests call are the exceptions.
A member is read when some gorlef module but `__init__.py`, or the
benchmark harness in perfbench/, reads an attribute of its name; dunders
and the members of private classes are exempt.

Every parameter with a default, of every function and method in gorlef,
is passed by position or keyword at some call in a gorlef module but
`__init__.py`, or in perfbench/; a setting no caller sets is a constant.
Calls are matched by the called name alone.  The check cannot see a knob
threaded through at a single value: a caller that hands on its own
default, as the CLI once did with each sampling box, counts as setting it.
"""

import ast
from pathlib import Path

import gorlef

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PAPER_CHECKS = {"hilbert_formula_check", "hess_coefficient_criterion",
                "block_det_identity"}


def _definitions_and_reads(sources):
    """Top-level names, dunders aside, defined in, and names read by, the
    modules of `sources`, a map of file name to source text;
    `__init__.py` is not a reader."""
    defined, referenced = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in (node.targets if isinstance(
                    node, ast.Assign) else [node.target])
                         if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((n, name) for n in names
                           if not (n.startswith("__") and n.endswith("__")))
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def _unread_members(sources, readers):
    """Members of the public classes in `sources`, a map of file name to
    source text, dunders aside, whose name neither `sources` but
    `__init__.py` nor the source texts `readers` read as an attribute;
    sorted, as "file:Class.name"."""
    members, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        members += [(name, node.name, item.name) for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__"))]
        if name != "__init__.py":
            read |= _attributes(tree)
    for source in readers:
        read |= _attributes(ast.parse(source))
    return sorted(f"{module}:{cls}.{member}"
                  for module, cls, member in members if member not in read)


def _attributes(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _package_sources():
    return {path.name: path.read_text()
            for path in sorted(Path(gorlef.__file__).parent.glob("*.py"))}


def _definitions_and_references():
    return _definitions_and_reads(_package_sources())


def _unread(defined, referenced, private):
    return sorted(f"{module}:{name}" for name, module in defined.items()
                  if name.startswith("_") == private
                  and name not in referenced and name not in PAPER_CHECKS)


def test_every_public_helper_has_a_caller():
    assert _unread(*_definitions_and_references(), private=False) == []


def test_every_private_helper_has_a_reader():
    # a private helper left behind by a refactor reads as dead as a
    # public one; members of private classes stay exempt (argparse calls
    # _Parser.error)
    assert _unread(*_definitions_and_references(), private=True) == []


def test_an_unread_private_helper_is_dead():
    defined, read = _definitions_and_reads({
        "m.py": "_STEP = 2\n_USED = 3\n__all__ = []\n\n"
                "def _minor(m):\n    return m\n\n"
                "class _Box:\n    def unread(self):\n        return _USED\n",
        "__init__.py": "m._minor(1)\n"})
    assert set(defined) == {"_STEP", "_USED", "_minor", "_Box"}
    assert _unread(defined, read, private=True) == [
        "m.py:_Box", "m.py:_STEP", "m.py:_minor"]
    assert _unread(defined, read, private=False) == []


def test_a_constant_without_a_reader_is_dead():
    defined, read = _definitions_and_reads({
        "m.py": "PRIME = 7\nLIMIT: int = 9\n\ndef f():\n    return LIMIT\n\n"
                "f()\n",
        "__init__.py": "PRIME = 7\n"})
    assert set(defined) == {"PRIME", "LIMIT", "f"}
    assert {name for name in defined if name not in read} == {"PRIME"}


def test_every_member_of_a_public_class_has_a_reader():
    assert _unread_members(
        _package_sources(),
        [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]) == []


def test_an_unread_member_is_dead():
    module = (
        "class Result:\n"
        "    def __len__(self):\n        return 0\n"
        "    def unread(self):\n        return 1\n"
        "    @property\n    def shown(self):\n        return 2\n"
        "    @property\n    def attempts_used(self):\n        return 3\n"
        "    @classmethod\n    def build(cls):\n        return cls().read()\n"
        "    def read(self):\n        return self.shown\n"
        "class _Parser:\n"
        "    def error(self):\n        return 4\n")
    # only __init__.py reads `unread`, and only the harness `attempts_used`
    sources = {"m.py": module, "__init__.py": "m.Result().unread()\n"}
    harness = "def count(result):\n    return result.attempts_used\n"
    assert _unread_members(sources, [harness]) == [
        "m.py:Result.build", "m.py:Result.unread"]
    assert _unread_members(sources, []) == [
        "m.py:Result.attempts_used", "m.py:Result.build", "m.py:Result.unread"]


def _calls(tree, cls=None):
    """(called name, call) for every call in tree: the name of a function,
    of an attribute, or of the class whose body calls `cls(...)`."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, ast.ClassDef) else cls
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield (cls if func.id == "cls" else func.id), node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node
        yield from _calls(node, inner)


def _knobs(tree, cls=None):
    """(name, shown name, parameter, position or None) for each parameter
    with a default in tree's functions and methods.  A method's position
    counts from the first argument after self or cls, and __init__ is
    called by its class's name; None marks a keyword-only parameter."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            name, shown, offset = node.name, node.name, 0
            if cls is not None:
                name = cls if name == "__init__" else name
                shown = cls if name == cls else f"{cls}.{name}"
                offset = 1
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield name, shown, arg.arg, i - offset
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, shown, arg.arg, None
            yield from _knobs(node)
        else:
            yield from _knobs(node, node.name if isinstance(
                node, ast.ClassDef) else cls)


def _unpassed_defaults(sources, readers):
    """(file, shown name, parameter) for each parameter with a default in
    `sources`, a map of file name to source text, that no call in
    `sources` but `__init__.py`, nor in the source texts `readers`,
    passes by position or keyword; sorted."""
    knobs = [(name, *knob) for name, source in sources.items()
             for knob in _knobs(ast.parse(source))]
    reach, keywords = {}, {}  # positions passed, keywords passed, per name
    for text in [s for name, s in sources.items() if name != "__init__.py"
                 ] + list(readers):
        for name, call in _calls(ast.parse(text)):
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            reach[name] = max(reach.get(name, 0),
                              float("inf") if starred else len(call.args))
            keywords.setdefault(name, set()).update(
                k.arg for k in call.keywords)  # None stands for **kwargs
    return sorted((file, shown, param)
                  for file, name, shown, param, pos in knobs
                  if not (pos is not None and reach.get(name, 0) > pos
                          or keywords.get(name, set()) & {param, None}))


def test_every_default_is_passed_somewhere():
    unpassed = _unpassed_defaults(
        _package_sources(),
        [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))])
    assert [knob for knob in unpassed if knob[1] not in PAPER_CHECKS] == []


def test_a_default_no_call_passes_is_a_dead_knob():
    module = (
        "def draw(n, rng, box=50, trials=3, *, seed=None):\n"
        "    def one(k=1):\n        return k\n"
        "    return one()\n"
        "class Grid:\n"
        "    def __init__(self, size=1):\n        self.size = size\n"
        "    def grow(self, by=1, twice=False):\n        return by\n"
        "    @classmethod\n    def unit(cls):\n        return cls(size=1)\n"
        "draw(1, None, 5)\nGrid.unit().grow(2)\n")
    # only __init__.py passes `trials`, and only the harness `seed`
    sources = {"m.py": module, "__init__.py": "m.draw(1, None, 5, 4)\n"}
    harness = "def run(m):\n    return m.draw(1, None, seed=7)\n"
    assert _unpassed_defaults(sources, [harness]) == [
        ("m.py", "Grid.grow", "twice"), ("m.py", "draw", "trials"),
        ("m.py", "one", "k")]
    assert _unpassed_defaults(sources, []) == [
        ("m.py", "Grid.grow", "twice"), ("m.py", "draw", "seed"),
        ("m.py", "draw", "trials"), ("m.py", "one", "k")]


def test_the_exemptions_are_still_defined():
    defined, _ = _definitions_and_references()
    assert PAPER_CHECKS <= defined.keys()


def _unreferenced_imports(source: str):
    """Names a module imports but never references, __future__ aside."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(Path(gorlef.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            names = _unreferenced_imports(path.read_text())
            if names:
                unused[path.name] = names
    assert unused == {}


def test_the_import_check_sees_an_unused_import():
    assert _unreferenced_imports(
        "from math import factorial, prod\nfactorial(3)\n") == ["prod"]
    assert _unreferenced_imports(
        "from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_all_is_what_the_package_imports():
    # a name dropped from one list and not the other lingers as an export
    # that fails on `from gorlef import *`, or as an import nobody lists
    tree = ast.parse(Path(gorlef.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(gorlef.__all__)) == len(gorlef.__all__)
    assert set(gorlef.__all__) == imported
