"""Every public function, class and method of clustersense is called, or says why not.

A public top-level name (no leading underscore) of a clustersense module,
or a public method or property of a public class, passes when `ast` finds
it, as a name or an attribute, somewhere in `src/` outside its own
definition, in `perfbench/worker.py` or in `tests/test_acceptance.py`.
Docstrings and comments do not count: `ast` sees no names in them.  Any
other public name needs an entry in PURPOSES that names the ROADMAP
direction or README row it serves.

PURPOSES stands in for per-module `__all__` lists.  An `__all__` would be a
second list of each module's names, kept in sync by hand beside the code
that already calls them; the table lists only the names that nothing
calls, and the test refuses a stale entry as well as a missing one.
"""

from __future__ import annotations

import argparse
import ast
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


#: Public names that nothing in src/, the benchmark worker or the acceptance
#: criteria calls, each with the direction or README row it serves.
PURPOSES = {
    # cli.main looks each handler up by its command's name
    **{f"cli.cmd_{command.replace('-', '_')}": f"README CLI: the `{command}` command"
       for command in _commands()},
    "compress.build_qft": "ROADMAP direction 7: the QFT readout circuit of the pipeline",
    "compress.unary_images": "README 'Compressor resources': the exact check of the "
                             "compressor past the dense cap, and its timing column",
    "estimate.dephased_rho": "README `estimate` row: the dense probe state after Gaussian "
                             "dephasing and encoding; only tests build it, as the dense state "
                             "that checks dephased_fisher_information and the outcome laws",
    "estimate.frequency_round": "README `estimate` row: the frequency objective used once; "
                                "timed by perfbench/tracing.py",
    "estimate.holevo_outcome_probabilities": "README `estimate` row: the Holevo round's "
                                             "unconditional Fourier-readout law p(k)",
    "estimate.holevo_variance": "README `estimate` row: the Holevo variance e^(sigma^2) - 1 "
                                "of a Gaussian or wrapped prior, in closed form",
    "estimate.Povm.outcome_probabilities": "README `estimate` row: Tr(E_k rho) on a dense "
                                           "state; tests take it as the dense route that the "
                                           "traces and the dephased Fisher information are "
                                           "checked against",
    "probes.amplitudes_from_angles": "README `probes` row: the angle-to-amplitude half of the "
                                     "inversion",
    "probes.build_prep_circuit": "README `probes` row: the controlled-Y cascade that prepares "
                                 "a real nonnegative profile",
    "simcore.cz": "README `simcore` row: the CZ of the gate set, which builds the cluster "
                  "states of ROADMAP direction 9's compiled patterns",
    "simcore.zero_state": "README `simcore` row: the all-zero dense state vector",
    "simcore.StateVector.is_null": "README `simcore` row: the flag of the null state that a "
                                   "zero-probability branch returns; tests read it on "
                                   "run_pattern's null branch",
}


def _members(module: types.ModuleType) -> dict[str, tuple[str, ...]]:
    """'name' or 'Class.member' -> the path of its definition, for every
    function and class that `module` defines under a public name, and every
    public method and property that such a class defines itself."""
    members = {}
    for name, obj in vars(module).items():
        if (name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj))
                or obj.__module__ != module.__name__):
            continue
        members[name] = (name,)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (property, classmethod, staticmethod))):
                    members[f"{name}.{attr}"] = (name, attr)
    return members


def _uses(tree: ast.AST) -> dict[str, set[tuple[str, ...]]]:
    """Each identifier used as a name or an attribute in `tree` -> the paths
    (the names of the enclosing functions and classes) of the places it is
    used in."""
    uses: dict[str, set[tuple[str, ...]]] = {}

    def visit(node: ast.AST, path: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            path += (node.name,)
        elif isinstance(node, ast.Name):
            uses.setdefault(node.id, set()).add(path)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, set()).add(path)
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, ())
    return uses


def _used_outside(uses: dict[str, set[tuple[str, ...]]], name: str,
                  skip: tuple[str, ...] = ()) -> bool:
    """Whether `name` is used anywhere but inside the definition at `skip`."""
    return any(not skip or path[:len(skip)] != skip for path in uses.get(name, ()))


def _uncalled_in(modules: dict[str, types.ModuleType], trees: dict[str, ast.AST],
                 outside: set[str]) -> set[str]:
    """The public names and members of `modules` that no tree (by module
    stem) uses outside their own definition and that `outside` lacks."""
    uses = {stem: _uses(tree) for stem, tree in trees.items()}
    uncalled = set()
    for home, module in modules.items():
        for qualified, path in _members(module).items():
            name = path[-1]
            if name in outside:
                continue
            if not any(_used_outside(found, name, path if stem == home else ())
                       for stem, found in uses.items()):
                uncalled.add(f"{home}.{qualified}")
    return uncalled


def _uncalled() -> set[str]:
    """The public names and members that no caller references."""
    modules = {info.name: importlib.import_module(f"clustersense.{info.name}")
               for info in pkgutil.iter_modules(clustersense.__path__)}
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    outside = set().union(*(_uses(ast.parse(path.read_text())) for path in CALLERS))
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
                           "value = used()\n"))
    assert not _used_outside(uses, "orphan", ("orphan",))
    assert _used_outside(uses, "used", ("used",))


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
    assert _uncalled_in({"box": module}, {"box": ast.parse(source)}, {"orphan"}) == {
        "box.measure"}
