"""The package holds what a run, a demo or the bench needs.

Every function, class and non-dunder method defined under ``src/orecohom``
(``instances.py`` aside: its canned instances serve the tests and the demos
alike) must be named somewhere in the code of ``src/`` (``__init__.py``
excluded, as it only re-exports), ``demos/`` or ``bench/`` besides its own
``def``.  Docstrings and comments do not count; a string literal that is a
whole name does, as ``bench/spans.py`` wraps methods by name.  A route that
only tests reach belongs in ``tests/`` (the eager bar route and the
recursive comparison maps live in ``tests/bar_reference.py``).

This is a floor, not a proof: names are matched as tokens, so a common name
such as ``read`` or ``add`` passes whenever any code uses that word."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orecohom"

# qualified name -> why it stays although no code under src/, demos/ or bench/ names it
ALLOWED = {
    "SmallComplex.to_sub": "the documented public reader of a cochain's coordinates, for library users",
    "Bimodule.from_actions": "the documented public constructor of a checked bimodule, for library users",
    "LinSolver.solve": "a documented public dense reader (README's list of them), for library users",
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the module, a class or a
    function begins."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                out.add((body[0].lineno, body[0].col_offset))
    return out


def code_names(path: Path) -> list[str]:
    """The names in the code of one file, each occurrence once: NAME tokens,
    and string literals that are a whole identifier; docstrings and comments
    are left out."""
    source = path.read_text()
    docstrings = _docstring_starts(ast.parse(source))
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            out.append(tok.string)
        elif tok.type == tokenize.STRING and tok.start not in docstrings:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                continue
            if isinstance(value, str) and value.isidentifier():
                out.append(value)
    return out


def package_defs() -> list[tuple[str, str]]:
    """(qualified name, name) of each function, class and non-dunder method
    under src/orecohom, instances.py aside."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "instances.py"):
            continue
        tree = ast.parse(path.read_text())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = child.name
                    if not (name.startswith("__") and name.endswith("__")):
                        out.append((prefix + name, name))
                    visit(child, prefix + name + ".")

        visit(tree, "")
    return out


def unreached() -> list[str]:
    """The qualified names defined in the package that no code token names
    besides their own definition.  Another definition of the same name
    counts as a use, so the overrides of one method pass together."""
    files = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    counts: dict[str, int] = {}
    for path in files:
        for name in code_names(path):
            counts[name] = counts.get(name, 0) + 1
    return sorted(qual for qual, name in package_defs() if counts.get(name, 0) <= 1)


def test_every_package_def_is_reached_outside_the_tests():
    flagged = [name for name in unreached() if name not in ALLOWED]
    assert flagged == [], f"reached only from tests/: {flagged}"


def test_the_allowed_names_are_still_unreached():
    """An allowance that the code has come to use is stale: drop it."""
    assert set(ALLOWED) <= set(unreached())
