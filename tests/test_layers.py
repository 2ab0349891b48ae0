"""The package is layered: every module imports only from strictly lower layers of

    {tables, models} < {pde, sde} < {filtering, baselines} < diagnostics < config < cli

and no package import sits inside a function, where it would hide a cycle.
`__init__.py` is exempt: its imports are the package's re-exports; so is cli's
`from . import __version__`.

There is one online loop: only pde, which defines them, and filtering name the
online primitives `propagate` and `exp_update`, and no module but pde imports an
underscore name from pde.
"""

import ast
import math
from pathlib import Path

import pytest

import yyfilter

LAYERS = (
    ("tables", "models"),
    ("pde", "sde"),
    ("filtering", "baselines"),
    ("diagnostics",),
    ("config",),
    ("cli",),
)
LEVEL = {name: i for i, layer in enumerate(LAYERS) for name in layer}
MODULES = sorted(p for p in Path(yyfilter.__file__).parent.glob("*.py") if p.name != "__init__.py")
EXEMPT = {("cli", "__version__")}


def _targets(node) -> list:
    """The package names one statement imports: `from .pde import x` and `import
    yyfilter.pde` name pde, `from . import __version__` names __version__."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level:
        dotted = ([f"yyfilter.{node.module}"] if node.module
                  else [f"yyfilter.{alias.name}" for alias in node.names])
    elif isinstance(node, ast.ImportFrom):
        dotted = [node.module]
    else:
        return []
    parts = [name.split(".") for name in dotted]
    return [p[1] if len(p) > 1 else "yyfilter" for p in parts if p[0] == "yyfilter"]


def _package_imports(source: str) -> list:
    """(line, imported name, inside a function) for every package import, at any depth."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            found.extend((child.lineno, target, in_function) for target in _targets(child))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(source), False)
    return found


def _layer_breaks(module: str, source: str) -> list:
    """(line, name) of each import that is inside a function or not from a lower layer."""
    return sorted(
        (line, target) for line, target, in_function in _package_imports(source)
        if (module, target) not in EXEMPT
        and (in_function or not LEVEL.get(target, math.inf) < LEVEL[module])
    )


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES} == set(LEVEL)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_from_lower_layers(path):
    assert _layer_breaks(path.stem, path.read_text(encoding="utf-8")) == []


def test_layer_breaks_are_found():
    source = ("from . import __version__\nfrom .sde import simulate\n"
              "from .filtering import run_filter\nimport yyfilter.cli\n\n"
              "def f():\n    from .tables import csv_table\n")
    assert _layer_breaks("baselines", source) == [(1, "__version__"), (3, "filtering"),
                                                  (4, "cli"), (7, "tables")]
    assert _layer_breaks("cli", source) == [(4, "cli"), (7, "tables")]


ONLINE = {"propagate", "exp_update"}
LOOP = {"pde", "filtering"}  # where the online primitives are defined and called


def _one_loop_breaks(module: str, source: str) -> list:
    """(line, name) of each online primitive named outside LOOP, as a name, an
    attribute or an import, and of each underscore name imported from pde but not in it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
            if module != "pde" and "pde" in _targets(node):
                found.extend((node.lineno, n) for n in names if n.startswith("_"))
        else:
            continue
        if module not in LOOP:
            found.extend((node.lineno, n) for n in names if n in ONLINE)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_filter_loop_calls_the_online_primitives(path):
    assert _one_loop_breaks(path.stem, path.read_text(encoding="utf-8")) == []


def test_one_loop_breaks_are_found():
    source = ("from .pde import _cn_system, integrate, propagate\nimport yyfilter.pde\n\n"
              "def f(g, v):\n    return yyfilter.pde.exp_update(v, g.observation, 0)\n")
    assert _one_loop_breaks("diagnostics", source) == [(1, "_cn_system"), (1, "propagate"),
                                                       (5, "exp_update")]
    assert _one_loop_breaks("filtering", source) == [(1, "_cn_system")]
    assert _one_loop_breaks("pde", source) == []
