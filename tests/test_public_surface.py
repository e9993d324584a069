"""Every public function and class of the package has a user.

A public top-level name in src/negmass must be referenced somewhere
else: by package code, by the README library tour, by the acceptance
criteria or by the benchmark.  The names in TEST_ORACLES are the only
exceptions.  Tests alone call them, as independent checks of a
different code path, and each docstring says so.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "negmass"
TEST_ORACLES = {"fermat_gradient", "scan_cusps", "read_csv"}


def _public_definitions():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield node.name


def _names_used_in_src():
    # loads and attribute accesses only: a definition, an import or a
    # docstring mention is not a use
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _outside_text():
    paths = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def test_every_public_name_has_a_user():
    used = _names_used_in_src()
    text = _outside_text()
    unused = {name for name in _public_definitions()
              if name not in used and not re.search(rf"\b{name}\b", text)}
    assert unused - TEST_ORACLES == set(), "public names only tests reach"
    assert TEST_ORACLES - unused == set(), "oracles that gained a user or were removed"
