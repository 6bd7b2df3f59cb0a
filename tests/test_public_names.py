"""Every public name and every defaulted parameter is used by the package.

A public top-level function or class, or a public method, that no module
under src/singularheat names outside its own definition is API that only
tests call.  Likewise a defaulted parameter of a top-level function or
method that no call in the package passes, by keyword or by position, is
an option only tests set.  Such a helper or option is deleted, not kept:
tests check the code that the commands run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "singularheat"

#: defaulted parameters that only callers outside the package pass
ALLOWED_DEFAULTS = {
    # tests and the benchmark's traced runner call main(argv) in-process
    "cli:main(argv)",
}


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


def _trees(src: Path) -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(src.glob("*.py"))}


def unused_public_names(src: Path) -> list:
    trees = _trees(src)
    used = {name for tree in trees.values() for name in _names_used(tree)}
    return [f"{module}:{qualified}"
            for module, tree in trees.items()
            for qualified, bare in _public_definitions(tree)
            if bare not in used]


def _functions(tree):
    """(qualified name, node, bound) of each top-level function and
    method; bound marks a first parameter the call does not spell out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, not static


def _defaulted(fn, bound: bool):
    """(name, position or None) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(trees):
    """bare callee name -> list of (positional count, keyword names,
    splat); a *args or **kwargs splat passes every parameter."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            splat = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            keys = {k.arg for k in node.keywords}
            out.setdefault(name, []).append((len(node.args), keys, splat))
    return out


def unpassed_defaults(src: Path) -> list:
    trees = _trees(src)
    calls = _calls(trees)
    out = []
    for module, tree in trees.items():
        for qualified, fn, bound in _functions(tree):
            for param, pos in _defaulted(fn, bound):
                passed = any(splat or param in keys
                             or (pos is not None and n > pos)
                             for n, keys, splat in calls.get(fn.name, ()))
                if not passed:
                    out.append(f"{module}:{qualified}({param})")
    return [name for name in out if name not in ALLOWED_DEFAULTS]


def test_every_public_name_has_a_caller_in_the_package():
    assert unused_public_names(SRC) == []


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert unpassed_defaults(SRC) == []
