"""Every public function and class of clustersense is called, or says why not.

A public top-level name (no leading underscore) of a clustersense module
passes when `ast` finds it, as a name or an attribute, somewhere in `src/`
outside its own definition, in `perfbench/worker.py` or in
`tests/test_acceptance.py`.  Docstrings and comments do not count: `ast`
sees no names in them.  Any other public name needs an entry in PURPOSES
that names the ROADMAP direction or README row it serves.

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
    "estimate.flat_prior": "README `estimate` row: the flat prior",
    "estimate.frequency_round": "README `estimate` row: the frequency objective used once; "
                                "timed by perfbench/tracing.py",
    "estimate.holevo_outcome_probabilities": "README `estimate` row: the Holevo round's "
                                             "unconditional Fourier-readout law p(k)",
    "estimate.holevo_variance": "README `estimate` row: the Holevo variance of a prior, a "
                                "density or samples",
    "probes.amplitudes_from_angles": "README `probes` row: the angle-to-amplitude half of the "
                                     "inversion",
    "probes.build_prep_circuit": "README `probes` row: the controlled-Y cascade that prepares "
                                 "a real nonnegative profile",
    "simcore.cz": "README `simcore` row: the CZ of the gate set, which builds the cluster "
                  "states of ROADMAP direction 9's compiled patterns",
    "simcore.zero_state": "README `simcore` row: the all-zero dense state vector",
}


def _public_names() -> dict[str, str]:
    """'module.name' -> module name, for every function and class that a
    clustersense module defines under a public name."""
    names = {}
    for info in pkgutil.iter_modules(clustersense.__path__):
        module = importlib.import_module(f"clustersense.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                names[f"{info.name}.{name}"] = info.name
    return names


def _referenced(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Every identifier used as a name or an attribute in `tree`, leaving out
    the body of the top-level definition called `skip`."""
    body = [node for node in getattr(tree, "body", [])
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip)]
    found = set()
    for node in (n for top in body for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _uncalled() -> set[str]:
    """The public names that no caller references."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    outside = set().union(*(_referenced(ast.parse(path.read_text())) for path in CALLERS))
    uncalled = set()
    for qualified, home in _public_names().items():
        name = qualified.split(".", 1)[1]
        if name in outside:
            continue
        if not any(name in _referenced(tree, name if stem == home else None)
                   for stem, tree in trees.items()):
            uncalled.add(qualified)
    return uncalled


def test_every_public_name_has_a_caller_or_a_purpose():
    uncalled = _uncalled()
    assert sorted(uncalled - PURPOSES.keys()) == [], "public names with no caller and no purpose"
    assert sorted(PURPOSES.keys() - uncalled) == [], "purposes of names that have a caller now"
    assert all(reason.strip() for reason in PURPOSES.values())


def test_a_definition_does_not_call_itself():
    # a name used only inside its own definition has no caller
    tree = ast.parse("def orphan(n):\n    return orphan(n - 1) if n else 0\n"
                     "def used():\n    return 1\n"
                     "value = used()\n")
    assert "orphan" not in _referenced(tree, "orphan")
    assert "used" in _referenced(tree, "used")
