"""`src/commsim` holds the pipeline, not its test oracles: every top-level
function and class there is referenced from `src/commsim` or `scripts/`,
exported in `commsim.__all__`, or wrapped by name in `perfbench/spans.py`.
Every method and property of a class there is referenced from `src/commsim`,
`scripts/` or `perfbench/`; dunder methods are called by Python itself. A
function or method that only tests call belongs in a `tests/oracle_*.py`
module.

A reference to a function or class is an AST `Name` or `Attribute`; one to a
method is an `Attribute` only, as a method is always reached as `obj.name`
(a local variable of the same name does not count). So a mention in a
docstring or an import alone does not count either. Names are matched
without their module or class.
"""

import ast
from pathlib import Path

import commsim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "commsim"
# perfbench times these by name; no library code calls them
TRACED_ONLY = {"hawkes.sample_next_activation", "simulator.build_context",
               "metrics.exclude_triggers"}
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(paths, kinds=(ast.Name, ast.Attribute)) -> set[str]:
    return {node.attr if isinstance(node, ast.Attribute) else node.id
            for path in paths for node in ast.walk(parse(path)) if isinstance(node, kinds)}


def library_names(kinds=(ast.Name, ast.Attribute)) -> set[str]:
    return referenced_names(sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
                            kinds)


def test_every_src_definition_has_a_caller_outside_the_tests():
    allowed = library_names() | set(commsim.__all__)
    orphans = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
               for node in parse(path).body
               if isinstance(node, (*FUNCTION, ast.ClassDef))
               and node.name not in allowed and f"{path.stem}.{node.name}" not in TRACED_ONLY]
    assert orphans == []


def test_every_src_method_has_a_caller_outside_the_tests():
    # perfbench reads some results only there (`ActionDecision.idle`)
    allowed = (library_names(ast.Attribute)
               | referenced_names(sorted((ROOT / "perfbench").glob("*.py")), ast.Attribute))
    orphans = [f"{path.stem}.{cls.name}.{node.name}" for path in sorted(SRC.glob("*.py"))
               for cls in parse(path).body if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, FUNCTION) and node.name not in allowed
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert orphans == []
