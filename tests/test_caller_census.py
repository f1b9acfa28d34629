"""Ratchet on public code that only tests call: every public function and method of polybloch has a caller.

A public function or method (no leading underscore; dunder methods are
called by the language, not by name) counts as called when its name
appears in src/polybloch outside its own def, the package re-exports of
__init__.py aside, as a name, an attribute or an imported name, or
anywhere in perfbench/, whose span wrappers also name methods in strings.
The census is by name, so a name another object shares counts as called.
Every other public name must be on KEPT, with the reason it stays.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polybloch"

KEPT = {
    "potential.cosine_sum": "public constructor of cosine tables, like cosine_pair; criteria 4 and 8 call it",
    "series.s_k": "criteria 4 and 5 call it",
    "series.SweepTable.errors_for": "criterion 3 calls it",
    "simple.SimplicityReport.violators": "criterion 7 calls it",
    "scanner.MeasureEstimate.resonant_fraction": "criterion 9 calls it",
}


def public_defs(tree: ast.Module):
    """(qualified name, node) of each public module-level function and public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def named(tree: ast.Module, strings: bool = False):
    """(name, line) of every name, attribute and imported name in tree, and with strings set every string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def uncalled(src: Path = SRC) -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = [(path, name, line) for path, tree in trees.items() if path.name != "__init__.py"
            for name, line in named(tree)]
    bench = {name for path in sorted((ROOT / "perfbench").glob("*.py"))
             for name, _ in named(ast.parse(path.read_text()), strings=True)}
    found = []
    for path, tree in trees.items():
        for qualname, node in public_defs(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in bench:
                continue
            if not any(used == name and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, used, line in uses):
                found.append(f"{path.stem}.{qualname}")
    return found


def test_public_code_has_a_caller_outside_tests():
    found = uncalled()
    unexplained = sorted(set(found) - set(KEPT))
    assert not unexplained, (
        "public code that no src/ or perfbench/ code names: move it to tests/, or keep it on KEPT with "
        "the reason it stays: " + ", ".join(unexplained))
    assert sorted(set(KEPT) - set(found)) == [], "KEPT names code that now has a caller: take it off KEPT"


def test_a_function_only_tests_call_is_found(tmp_path):
    # a public helper and method that no src/ code names, re-exported by the package,
    # and one that calls itself: each is found; one that src/ names is not
    src = tmp_path / "polybloch"
    shutil.copytree(SRC, src)
    with open(src / "numerics.py", "a") as fh:
        fh.write("\n\ndef only_tests():\n    return only_tests\n\n\n"
                 "class Helper:\n    def method(self):\n        return 0\n\n\n"
                 "def called():\n    return 1\n\n\nCALLED = called()\n")
    with open(src / "__init__.py", "a") as fh:
        fh.write("from .numerics import only_tests, Helper\n")
    assert sorted(set(uncalled(src)) - set(uncalled())) == ["numerics.Helper.method", "numerics.only_tests"]
