"""Source hygiene: every private function and class of collsim is used somewhere in it."""

import ast
from pathlib import Path

import collsim

SRC = Path(collsim.__file__).parent


def private_definitions_and_uses(src=SRC):
    """``({name: "file:line"}, used names)`` over the modules under ``src``.

    A private name starts with one underscore (dunder methods are not
    private).  A use is a name or an attribute read anywhere; an import is
    not a use, so a definition that is only imported still counts as unused.
    """
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_private_function_and_class_is_used():
    defined, used = private_definitions_and_uses()
    assert len(defined) > 40  # the walk found the package's private helpers
    unused = {name: where for name, where in defined.items() if name not in used}
    assert not unused, f"private names defined but never used in collsim: {unused}"


def test_gate_catches_a_private_function_nothing_calls(tmp_path):
    (tmp_path / "a.py").write_text("def _used():\n    pass\n\n\ndef _left_over():\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import _left_over, _used\n\n_used()\n")
    defined, used = private_definitions_and_uses(tmp_path)
    assert sorted(defined) == ["_left_over", "_used"]
    assert [name for name in defined if name not in used] == ["_left_over"]
