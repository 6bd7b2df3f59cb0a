"""Every public name of the package is used by the package itself.

A public top-level function or class, or a public method, that no module
under src/singularheat names outside its own definition is API that only
tests call.  Such a helper is deleted, not kept: tests check the code
that the commands run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "singularheat"


def _public_definitions(tree):
    """(qualified name, bare name) of each public function, class and
    method at the top level of a module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _names_used(tree):
    """Every identifier the module reads, calls or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unused_public_names(src: Path) -> list:
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    used = {name for tree in trees.values() for name in _names_used(tree)}
    return [f"{module}:{qualified}"
            for module, tree in trees.items()
            for qualified, bare in _public_definitions(tree)
            if bare not in used]


def test_every_public_name_has_a_caller_in_the_package():
    assert unused_public_names(SRC) == []
