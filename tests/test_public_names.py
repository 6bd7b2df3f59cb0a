"""Every public name, defaulted parameter and defaulted field is used.

A public top-level function or class, or a public method, that no module
under src/singularheat names outside its own definition is API that only
tests call.  Likewise a defaulted parameter of a top-level function or
method that no call in the package passes, by keyword or by position, is
an option only tests set; so is a defaulted dataclass field that no
constructor call passes.  A Cls(...) call, and a cls(...) call in the
class's own methods, is a constructor call: it calls Cls.__init__ with
self bound, or builds the dataclass Cls.  Such a helper or option is
deleted, not kept: tests check the code that the commands run.  A public
method that the package reaches only as self.<name> is an internal hook
of its class, not API: it is inlined or made private.
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


def _self_only_attributes(trees) -> set:
    """Attribute names the package reads only as self.<name>; a method
    is reached through an attribute, never a bare name."""
    via_self, elsewhere = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                on_self = isinstance(node.value, ast.Name) \
                    and node.value.id == "self"
                (via_self if on_self else elsewhere).add(node.attr)
    return via_self - elsewhere


def internal_hooks(src: Path) -> list:
    trees = _trees(src)
    hooks = _self_only_attributes(trees)
    return [f"{module}:{qualified}"
            for module, tree in trees.items()
            for qualified, bare in _public_definitions(tree)
            if "." in qualified and bare in hooks]


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


def _bare(expr):
    """The bare name of a Name or Attribute node, else None."""
    return expr.id if isinstance(expr, ast.Name) else \
        expr.attr if isinstance(expr, ast.Attribute) else None


def _call_records(root):
    """(bare callee name, (positional count, keyword names, splat)) of
    each call under root; a *args or **kwargs splat passes every
    parameter."""
    for node in ast.walk(root):
        if not isinstance(node, ast.Call):
            continue
        name = _bare(node.func)
        if name is None:
            continue
        splat = any(isinstance(a, ast.Starred) for a in node.args) \
            or any(k.arg is None for k in node.keywords)
        keys = {k.arg for k in node.keywords}
        yield name, (len(node.args), keys, splat)


def _calls(trees):
    """bare callee name -> list of call records."""
    out = {}
    for tree in trees.values():
        for name, record in _call_records(tree):
            out.setdefault(name, []).append(record)
    return out


def _passed(records, name, pos) -> bool:
    return any(splat or name in keys or (pos is not None and n > pos)
               for n, keys, splat in records)


def _constructor_calls(calls, cls) -> list:
    """Call records of each Cls(...) call in the package and each
    cls(...) call in the class's own methods."""
    return calls.get(cls.name, []) + [
        record for name, record in _call_records(cls) if name == "cls"]


def unpassed_defaults(src: Path) -> list:
    trees = _trees(src)
    calls = _calls(trees)
    out = []
    for module, tree in trees.items():
        classes = {node.name: node for node in tree.body
                   if isinstance(node, ast.ClassDef)}
        for qualified, fn, bound in _functions(tree):
            records = calls.get(fn.name, [])
            if fn.name == "__init__":
                records = records + _constructor_calls(
                    calls, classes[qualified.split(".")[0]])
            for param, pos in _defaulted(fn, bound):
                if not _passed(records, param, pos):
                    out.append(f"{module}:{qualified}({param})")
    return [name for name in out if name not in ALLOWED_DEFAULTS]


def _is_dataclass(cls) -> bool:
    return any(_bare(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _defaulted_fields(cls):
    """(name, position) of each defaulted __init__ field of a dataclass;
    a field(init=False) takes no position."""
    pos = 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _bare(value.func) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            init = kw.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in kw or "default_factory" in kw
        else:
            defaulted = value is not None
        if defaulted:
            yield stmt.target.id, pos
        pos += 1


def unpassed_fields(src: Path) -> list:
    trees = _trees(src)
    calls = _calls(trees)
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            records = _constructor_calls(calls, cls)
            for field, pos in _defaulted_fields(cls):
                if not _passed(records, field, pos):
                    out.append(f"{module}:{cls.name}.{field}")
    return out


def test_every_public_name_has_a_caller_in_the_package():
    assert unused_public_names(SRC) == []


def test_no_public_method_is_reached_only_through_self():
    assert internal_hooks(SRC) == []


def test_hook_rule_flags_self_only_methods(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def hook(self):\n"
        "        return 1\n"
        "    def api(self):\n"
        "        return self.hook()\n"
        "    def other(self):\n"
        "        return self.api()\n"
        "def use(a):\n"
        "    return a.api() + a.other()\n")
    assert internal_hooks(tmp_path) == ["m:A.hook"]


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert unpassed_defaults(SRC) == []


def test_every_defaulted_field_is_passed_in_the_package():
    assert unpassed_fields(SRC) == []


def test_field_rule_counts_constructor_calls(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 1\n"
        "    w: list = field(default_factory=list)\n"
        "    h: int = field(init=False)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(1, w=[2])\n"
        "def build():\n"
        "    return A(1, 2)\n")
    assert unpassed_fields(tmp_path) == ["m:A.z"]


def test_default_rule_counts_constructor_calls_of_plain_classes(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self, x, y=0, z=1, *, w=None):\n"
        "        self.x, self.y, self.z, self.w = x, y, z, w\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(1, w=[2])\n"
        "def build():\n"
        "    return A(1, 2)\n")
    assert unpassed_defaults(tmp_path) == ["m:A.__init__(z)"]
