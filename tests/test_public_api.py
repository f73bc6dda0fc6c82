"""Every function and method of the package has a caller in the program.

The check parses `src/graphbac/*.py` with `ast` and takes three kinds of
names: top-level functions, public and private; public methods of public
classes; and private methods, other than dunder methods, of any class.
Each must be referenced in some module of `src/graphbac` or `perfbench`
(its self-tests excluded): a bare `name` counts for a function, an attribute
`.name` for a method, and the definition itself does not count.  A name that
only tests use is either dead or test scaffolding, and belongs in the tests.

Only names defined once in the package are checked.  A name defined more
than once, such as `to_doc` or `from_doc`, cannot be told apart by its
references, so an unused one of its definitions is out of this check's reach.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphbac"
PERFBENCH = ROOT / "perfbench"

# name -> why it stays without a caller in the program
ALLOWED = {
    "find_flow_witness": "acceptance criterion 3 checks every static reason "
    "against a concrete witness through it",
    "MockTarget.snapshot": "the mock's state identity, for differential checks",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _checked_method(cls: str, name: str) -> bool:
    """A public method of a public class, or a private method, other than a
    dunder method, of any class."""
    if _public(name):
        return _public(cls)
    return not (name.startswith("__") and name.endswith("__"))


def _definitions() -> list[tuple[str, str, bool]]:
    """(qualified name, name, is a method) of each checked definition."""
    counts: Counter[str] = Counter()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                counts[node.name] += 1
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((node.name, node.name, False))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and _checked_method(node.name, item.name):
                        found.append((f"{node.name}.{item.name}", item.name, True))
    return [d for d in found if counts[d[1]] == 1]


def _references() -> tuple[set[str], set[str]]:
    """The bare names and the attribute names the program's code uses."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_")
    )
    names: set[str] = set()
    attributes: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _uncalled() -> list[str]:
    names, attributes = _references()
    return sorted(
        qualified
        for qualified, name, is_method in _definitions()
        if name not in (attributes if is_method else names)
    )


def test_every_public_name_has_a_caller_in_the_program():
    assert [q for q in _uncalled() if q not in ALLOWED] == []


def test_each_allowed_name_is_defined_once_and_still_uncalled():
    # an entry that gained a caller, or whose definition went, must go too
    assert sorted(ALLOWED) == sorted(q for q in _uncalled() if q in ALLOWED)
