import ast
from pathlib import Path

import dbarn

# Reached from outside src, so no src reference is expected.
CALLED_FROM_OUTSIDE = {
    "hodge_decompose",  # perfbench's galerkin_session workload solves through it
    "canonical_solve_dbar",  # likewise; forms go through exact.canonical_exact
    "SobolevGram.cholesky",  # perfbench's galerkin_session set-up factors each Gram
    "MonomialBasis.coefficients_of",  # perfbench/tests reads input coefficients with it
    "form_to_text",  # the README's round trip with form_from_text
}


def _modules() -> list[Path]:
    return [p for p in sorted(Path(dbarn.__file__).parent.glob("*.py"))
            if p.name != "__init__.py"]


def _definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """{qualified name: bare name} of every non-dunder function, class and method."""
    out = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    out[f"{module}:{prefix}{name}"] = name
                visit(child, f"{prefix}{name}.")

    visit(tree, "")
    return out


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_every_src_function_has_a_src_caller():
    defined, referenced = {}, set()
    for path in _modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(_definitions(tree, path.stem))
        referenced |= _references(tree)
    uncalled = sorted(qual for qual, name in defined.items()
                      if name not in referenced
                      and qual.split(":", 1)[1] not in CALLED_FROM_OUTSIDE)
    assert uncalled == []
