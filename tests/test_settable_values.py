"""Ratchet on the settable values of polybloch: the options a caller can set without being made to.

A settable value is a defaulted parameter of a public function or method
(dunder methods count, _private ones do not), a dataclass field with a
default (a value, or a field() with default or default_factory, unless it
sets init), or a key of config._SCHEMA.  A field() with neither is
required, not settable.
"""

import ast
from pathlib import Path

from polybloch.config import _SCHEMA

SRC = Path(__file__).resolve().parents[1] / "src" / "polybloch"
MAX_SETTABLE_VALUES = 76


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
               for dec in node.decorator_list)


def _has_default(stmt: ast.AnnAssign) -> bool:
    value = stmt.value
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        keywords = {kw.arg for kw in value.keywords}
        return "init" not in keywords and bool(keywords & {"default", "default_factory"})
    return True


def _settable(scope, module: str, prefix: str = "") -> list[str]:
    found = []
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.FunctionDef) and _is_public(node.name):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, dflt in zip(args.kwonlyargs, args.kw_defaults) if dflt is not None]
            found += [f"{module}.{prefix}{node.name}.{a.arg}" for a in defaulted]
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if _is_dataclass(node):
                found += [f"{module}.{node.name}.{stmt.target.id}" for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and _has_default(stmt)]
            found += _settable(node, module, f"{prefix}{node.name}.")
    return found


def settable_values() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _settable(ast.parse(path.read_text()), path.stem)
    return found + [f"config.{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]


def test_settable_values_do_not_grow():
    found = settable_values()
    assert len(found) <= MAX_SETTABLE_VALUES, (
        f"{len(found)} settable values in src/polybloch, at most {MAX_SETTABLE_VALUES} allowed. A new option "
        "needs two callers outside tests/ that need different values; otherwise fix the value in the code. "
        "Values: " + ", ".join(found))
