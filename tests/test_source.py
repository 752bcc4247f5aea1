"""Checks on the library's source text: every function parameter is read, no
module reads another's private names, and each name has one import path."""

import ast
from pathlib import Path

from kplab import cli

SRC = Path(cli.__file__).resolve().parent


def _unread_parameters(source):
    """(function name, parameter) for every parameter its function's body never reads.

    A read inside a nested function or lambda counts.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(name, p) for p in params if p not in read]
    return found


def test_unread_parameter_check_finds_one():
    source = "def f(a, b, *args, c=1, **kw):\n    g = lambda x, y: x\n    return a + kw['c']\n"
    assert _unread_parameters(source) == [
        ("f", "b"), ("f", "c"), ("f", "args"), ("<lambda>", "y"),
    ]


def test_every_parameter_is_read():
    # the subcommand runners share one signature, (cfg, workers, outdir),
    # which `cli.run` calls them with whether or not they use all three
    runners = {getattr(e.runner, "func", e.runner).__name__ for e in cli._TABLE.values()}
    shared = {"cfg", "workers", "outdir"}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for name, param in _unread_parameters(path.read_text(encoding="utf-8")):
            if not (path.name == "cli.py" and name in runners and param in shared):
                unread.append(f"{path.name}: {name}({param})")
    assert unread == []


def _private_reads(source, modules):
    """Every `module._name` read and `from .module import _name` of another module's private name.

    Dunder names such as `__version__` are not private.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_private_read_check_finds_two():
    source = ("from . import __version__, fields\n"
              "from .evolution import _bump, whole_steps\n"
              "x = fields._mirror(1) + fields.grid + fields.__doc__ + self._own\n")
    assert _private_reads(source, {"fields", "evolution"}) == ["evolution._bump",
                                                                 "fields._mirror"]


def test_no_module_reads_another_modules_private_names():
    modules = {path.stem for path in SRC.glob("*.py")}
    found = [f"{path.name}: {read}" for path in sorted(SRC.glob("*.py"))
             for read in _private_reads(path.read_text(encoding="utf-8"), modules)]
    assert found == []


def test_the_package_re_exports_nothing():
    # every name is imported from its own module: the package binds only
    # __version__ and imports nothing
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))
    bound = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    assert bound == {"__version__"}
    assert all(isinstance(n, (ast.Expr, ast.Assign)) for n in tree.body)
