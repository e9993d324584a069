"""Every public function and class of the package has a user.

A public top-level name in src/negmass must be referenced somewhere
else: by package code, by the README library tour, by the acceptance
criteria or by the benchmark.  Prose elsewhere in README does not count,
and checks that only tests run live in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "negmass"


def _public_definitions():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield node.name


def _names_used_in_src():
    # a use is a bare-name load, or an attribute loaded from a module that
    # the file binds with `from . import mod [as alias]`: a definition, an
    # import, a docstring mention or a same-named field elsewhere is not
    used = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                used.add(node.attr)
    return used


def _library_tour():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.DOTALL).group(1)


def _outside_text():
    paths = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    return "\n".join([_library_tour(), *(p.read_text(encoding="utf-8") for p in paths)])


def test_every_public_name_has_a_user():
    used = _names_used_in_src()
    text = _outside_text()
    unused = {name for name in _public_definitions()
              if name not in used and not re.search(rf"\b{name}\b", text)}
    assert unused == set(), "public names only tests reach"


def test_readme_library_tour_runs():
    exec(compile(_library_tour(), "README.md library tour", "exec"), {})
