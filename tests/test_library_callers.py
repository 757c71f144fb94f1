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
import re
from collections import Counter
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


def test_each_is_not_phrase_is_written_once():
    """An input rule's error text, `{name} {value!r} is not <kind>`, is written
    at one place: each `is not ...` ending of a string literal in
    `src/commsim` (an f-string read with `{}` for each placeholder, docstrings
    left out) appears once, and each kind name once in all, as a literal of
    its own or as such an ending."""
    texts = []
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path)
        skip = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTION))
                and node.body and isinstance(node.body[0], ast.Expr)}
        skip |= {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                 for part in node.values}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                texts.append("".join(part.value if isinstance(part, ast.Constant) else "{}"
                                     for part in node.values))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in skip):
                texts.append(node.value)
    kinds = ["an integer", "a number", "a boolean", "a string", "a list of strings"]
    places = Counter(m.group(1) for text in texts if (m := re.search(r"\bis not (.+)$", text)))
    places.update(text for text in texts if text in kinds)
    assert [phrase for phrase, n in places.items() if n > 1] == []
    assert [places[kind] for kind in kinds] == [1] * len(kinds)


# every use of the unchecked constructor `corpus._unchecked` by (module,
# enclosing function), each with what makes the skipped check hold there. Agent replies,
# user policies and files read by the CLI go through the checked constructors.
UNCHECKED_SITES = {
    ("corpus", "build_log"),              # sorted, ids unique by its own check, own registry
    ("corpus", "window"),                 # a subsequence of a checked log
    ("metrics", "exclude_triggers"),      # a subsequence of a checked log, renumbered
    ("simulator", "select_triggers"),     # a subsequence of a checked log
    ("simulator", "ContextIndex.context"),  # runs AgentContext's unread check itself
    ("agents", "stub_decide"),            # ActionDecision has no check
}


def unchecked_sites(path: Path) -> list[tuple[str, str]]:
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTION, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if getattr(child, "id", getattr(child, "attr", None)) == "_unchecked":
                sites.append((path.stem, ".".join(scope)))
            visit(child, scope)

    visit(parse(path), ())
    return sites


def test_unchecked_constructors_are_used_only_at_listed_sites():
    paths = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    assert {site for path in paths for site in unchecked_sites(path)} == UNCHECKED_SITES
