"""Shape of the core package: no function in ``repro.core`` runs past
200 lines.

The search used to live in one 1,400-line nest of closures; the bound
keeps each part of the controller readable on its own — a function
that outgrows it should be split along the paper's concepts, as the
A* was into its run, frontier, expander and accountant.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.core

#: Longest allowed function or method, in source lines (``def`` line
#: through the last line of its body, nested functions included).
MAX_FUNCTION_LINES = 200


def _long_functions(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (f"{path.name}:{node.lineno} {node.name}", lines)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (lines := node.end_lineno - node.lineno + 1) > MAX_FUNCTION_LINES
    ]


def test_no_core_function_exceeds_the_line_bound():
    core = Path(repro.core.__file__).parent
    paths = sorted(core.glob("*.py"))
    assert paths
    offenders = [
        entry for path in paths for entry in _long_functions(path)
    ]
    assert not offenders, offenders
