"""`src/commsim` holds the pipeline, not its test oracles: every top-level
function and class there is referenced from `src/commsim` or `scripts/`,
exported in `commsim.__all__`, or wrapped by name in `perfbench/spans.py`.
A function that only tests call belongs in a `tests/oracle_*.py` module.

A reference is an AST `Name` or `Attribute`, so a mention in a docstring or
an import alone does not count. Names are matched without their module.
"""

import ast
from pathlib import Path

import commsim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "commsim"
# perfbench times these by name; no library code calls them
TRACED_ONLY = {"hawkes.sample_next_activation", "simulator.build_context",
               "metrics.exclude_triggers"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_src_definition_has_a_caller_outside_the_tests():
    sources = sorted(SRC.glob("*.py"))
    allowed = (referenced_names(sources + sorted((ROOT / "scripts").glob("*.py")))
               | set(commsim.__all__))
    orphans = [f"{path.stem}.{node.name}" for path in sources for node in parse(path).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in allowed and f"{path.stem}.{node.name}" not in TRACED_ONLY]
    assert orphans == []
