"""Every public function, class, method and field of clustersense is used, or says why not.

A public top-level name (no leading underscore) of a clustersense module,
a public method or property of a public class, or a field of a public
dataclass, passes when `ast` finds it used somewhere in `src/` outside its
own definition, in `perfbench/worker.py` or in `tests/test_acceptance.py`.
A top-level name counts as a bare name only in its home module or where it
is imported from there, and as an attribute only on that module or an
alias of it; a method, property or field counts as an attribute of
anything, so a field passes when something reads it.  So a local variable that
shares a public function's name is not a call of it.  Docstrings and
comments do not count: `ast` sees no names in them.  Any other public name
needs an entry in PURPOSES that names the ROADMAP direction or README row
it serves.

PURPOSES stands in for per-module `__all__` lists.  An `__all__` would be a
second list of each module's names, kept in sync by hand beside the code
that already calls them; the table lists only the names that nothing
calls, and the test refuses a stale entry as well as a missing one.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import clustersense
from clustersense import cli

SRC = Path(clustersense.__file__).parent
ROOT = SRC.parents[1]
CALLERS = (ROOT / "perfbench" / "worker.py", ROOT / "tests" / "test_acceptance.py")


def _commands() -> list[str]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


#: Public names and fields that nothing in src/, the benchmark worker or the
#: acceptance criteria calls or reads, each with the direction or README row
#: it serves.
PURPOSES = {
    # cli.main looks each handler up by its command's name
    **{f"cli.cmd_{command.replace('-', '_')}": f"README CLI: the `{command}` command"
       for command in _commands()},
    "compress.unary_images": "README 'Compressor resources': the exact check of the "
                             "compressor past the dense cap, and its timing column",
    "estimate.holevo_bayes_round": "ROADMAP north star: the `holevo_bayes_round` layer row at "
                                   "N=100, and the general-POVM Holevo round that pins "
                                   "`holevo_curve`",
    "compress.ResourceReport.mbqc_qubit_estimate": "README 'Compressor resources': the "
                                                   "measurement-based qubit column; ROADMAP "
                                                   "direction 9",
    "estimate.TauOptimum.boundary": "ROADMAP direction 11 (whether an optimum sits on a grid "
                                    "boundary), and the tau step of the CI workflow",
    "mbqc.VerifyReport.pruned": "ROADMAP direction 11: the outcome branches a verification "
                                "pruned",
}


def _members(module: types.ModuleType) -> dict[str, tuple[str, ...]]:
    """'name' or 'Class.member' -> the path of its definition, for every
    function and class that `module` defines under a public name, every
    public method and property that such a class defines itself, and every
    field of such a class that is a dataclass."""
    members = {}
    for name, obj in vars(module).items():
        if (name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj))
                or obj.__module__ != module.__name__):
            continue
        members[name] = (name,)
        if dataclasses.is_dataclass(obj):
            members.update({f"{name}.{f.name}": (name, f.name) for f in dataclasses.fields(obj)})
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (property, classmethod, staticmethod))):
                    members[f"{name}.{attr}"] = (name, attr)
    return members


def _uses(tree: ast.AST, stems, home: str | None = None) -> dict[str, set[tuple[str, ...]]]:
    """Each use in `tree` -> the paths (the names of the enclosing functions
    and classes) of the places it is made in.  A use is keyed 'stem.name'
    for a name of the module `stem`, one of `stems`: a bare name imported
    from it (relatively or under clustersense), a bare name in its own
    tree (`home`), or an attribute of the module, read from its own name,
    an alias imported for it, or an attribute named after it
    (`pkg.estimate`); and '.attr' for an attribute of anything."""
    imported = {}
    modules = {stem: stem for stem in stems}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("clustersense").lstrip(".")
            for alias in node.names:
                if source in stems:
                    imported[alias.asname or alias.name] = f"{source}.{alias.name}"
                elif not source and alias.name in stems:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                stem = alias.name.removeprefix("clustersense.")
                if alias.asname and stem in stems:
                    modules[alias.asname] = stem

    def module_of(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in stems:
            return node.attr
        return None

    uses: dict[str, set[tuple[str, ...]]] = {}

    def visit(node: ast.AST, path: tuple[str, ...]) -> None:
        keys = ()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            path += (node.name,)
        elif isinstance(node, ast.Name):
            keys = (imported.get(node.id, home and f"{home}.{node.id}"),)
        elif isinstance(node, ast.Attribute):
            module = module_of(node.value)
            keys = (f".{node.attr}", module and f"{module}.{node.attr}")
        for key in filter(None, keys):
            uses.setdefault(key, set()).add(path)
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, ())
    return uses


def _used_outside(uses: dict[str, set[tuple[str, ...]]], key: str,
                  skip: tuple[str, ...] = ()) -> bool:
    """Whether the use `key` is made anywhere but inside the definition at `skip`."""
    return any(not skip or path[:len(skip)] != skip for path in uses.get(key, ()))


def _uncalled_in(modules: dict[str, types.ModuleType], trees: dict[str, ast.AST],
                 outside: set[str]) -> set[str]:
    """The public names and members of `modules` that no tree (by module
    stem) uses outside their own definition and that the uses in `outside`
    lack: a top-level name through its module, a member through any
    attribute."""
    uses = {stem: _uses(tree, modules, stem) for stem, tree in trees.items()}
    uncalled = set()
    for home, module in modules.items():
        for qualified, path in _members(module).items():
            key = f"{home}.{path[0]}" if len(path) == 1 else f".{path[-1]}"
            if key not in outside and not any(
                    _used_outside(found, key, path if stem == home else ())
                    for stem, found in uses.items()):
                uncalled.add(f"{home}.{qualified}")
    return uncalled


def _uncalled() -> set[str]:
    """The public names and members that no caller references."""
    modules = {info.name: importlib.import_module(f"clustersense.{info.name}")
               for info in pkgutil.iter_modules(clustersense.__path__)}
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    outside = set().union(*(_uses(ast.parse(path.read_text()), modules) for path in CALLERS))
    return _uncalled_in(modules, trees, outside)


def test_every_public_name_has_a_caller_or_a_purpose():
    uncalled = _uncalled()
    assert sorted(uncalled - PURPOSES.keys()) == [], "public names with no caller and no purpose"
    assert sorted(PURPOSES.keys() - uncalled) == [], "purposes of names that have a caller now"
    assert all(reason.strip() for reason in PURPOSES.values())


def test_a_definition_does_not_call_itself():
    # a name used only inside its own definition has no caller
    uses = _uses(ast.parse("def orphan(n):\n    return orphan(n - 1) if n else 0\n"
                           "def used():\n    return 1\n"
                           "value = used()\n"), {"m"}, "m")
    assert not _used_outside(uses, "m.orphan", ("orphan",))
    assert _used_outside(uses, "m.used", ("used",))


def test_a_local_of_the_same_name_is_not_a_call():
    # another module's local z, or an attribute z of anything but the
    # module, does not call gates.z; importing it or reading it from the
    # module, under its own name or an alias, does
    source = "def z(q):\n    return q\n"
    module = types.ModuleType("gates")
    exec(compile(source, "gates.py", "exec"), vars(module))
    trees = {"gates": ast.parse(source)}
    for user in ("def flip(x):\n    z = x + 1\n    return z\n",
                 "def flip(frame):\n    return frame.z\n"):
        assert _uncalled_in({"gates": module}, {**trees, "user": ast.parse(user)}, set()) == {
            "gates.z"}
    for user in ("from .gates import z\nz(0)\n", "from . import gates\ngates.z(0)\n",
                 "from clustersense import gates as g\ng.z(0)\n",
                 "def f(pkg):\n    return pkg.gates.z(0)\n"):
        assert _uncalled_in({"gates": module}, {**trees, "user": ast.parse(user)}, set()) == set()


def test_an_uncalled_method_is_flagged():
    # a method that only its own body calls is flagged under its class; a
    # property that another definition reads is not, nor is the class
    source = ("class Box:\n"
              "    def orphan(self):\n"
              "        return self.orphan()\n"
              "    @property\n"
              "    def size(self):\n"
              "        return 1\n"
              "def measure(box: Box):\n"
              "    return box.size\n")
    module = types.ModuleType("box")
    exec(compile(source, "box.py", "exec"), vars(module))
    assert _uncalled_in({"box": module}, {"box": ast.parse(source)}, set()) == {
        "box.Box.orphan", "box.measure"}
    # the same method read from outside the package has a caller
    assert _uncalled_in({"box": module}, {"box": ast.parse(source)}, {".orphan"}) == {
        "box.measure"}


def test_an_unread_field_is_flagged():
    # a dataclass field that nothing reads as an attribute is flagged under
    # its class; one that another definition reads is not, nor is one read
    # from outside the package
    source = ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class Report:\n"
              "    total: int\n"
              "    spare: int = 0\n"
              "def show(report: Report):\n"
              "    return report.total\n"
              "value = show(Report(1, spare=2))\n")
    module = types.ModuleType("report")
    exec(compile(source, "report.py", "exec", dont_inherit=True), vars(module))
    assert _uncalled_in({"report": module}, {"report": ast.parse(source)}, set()) == {
        "report.Report.spare"}
    assert _uncalled_in({"report": module}, {"report": ast.parse(source)}, {".spare"}) == set()
