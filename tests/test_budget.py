"""The driver budget is the one rule behind every driver-or-distributed
branch: no operator takes a per-call row threshold or strategy knob."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_knob(name: str) -> bool:
    return (name in ("strategy", "broadcast_threshold", "distributed_threshold")
            or (name.startswith("driver_") and name.endswith("threshold")))


def _trees(path: Path):
    """The module's AST plus those of its multi-line string constants
    that parse as Python (child-process scripts held in a string)."""
    tree = ast.parse(path.read_text())
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "\n" in node.value:
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass


def test_no_operator_takes_a_branch_knob():
    bad = []
    for path in sorted((ROOT / "city2graph_ray").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
                    if _is_knob(arg.arg):
                        bad.append(f"{path.relative_to(ROOT)}:"
                                   f"{node.lineno} {arg.arg}")
    assert not bad, bad


def test_no_entry_or_script_call_passes_a_branch_knob():
    bad = []
    for path in sorted([ROOT / "__ray_entry__.py",
                        *(ROOT / "scripts").rglob("*.py")]):
        for tree in _trees(path):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    bad += [f"{path.relative_to(ROOT)}:{node.lineno} {k.arg}"
                            for k in node.keywords
                            if k.arg and _is_knob(k.arg)]
    assert not bad, bad


def test_driver_bytes_is_compared_only_in_fits_driver():
    uses = []
    for path in sorted((ROOT / "city2graph_ray").rglob("*.py")):
        if path.name == "budget.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "DRIVER_BYTES") \
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "DRIVER_BYTES"):
                uses.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not uses, uses
