"""Source hygiene: every private function and class of collsim is used somewhere in it, and every
public one somewhere in the repository."""

import ast
from pathlib import Path

import collsim

SRC = Path(collsim.__file__).parent
REPO = Path(__file__).resolve().parents[1]
READERS = (SRC, REPO / "tests", REPO / "demos", REPO / "bench")  # where a public name may be used


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


def public_definitions_and_uses(src=SRC, readers=READERS):
    """``({name: "file:line"}, names read, attributes read)``: public definitions under ``src``, uses under ``readers``.

    A public module-level function or class is keyed by its name, a public
    method or property of a class by ``"Class.attr"`` (dunder methods are not
    public).  An import is not a use.
    """
    defined, names, attrs = {}, set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined.setdefault(f"{node.name}.{item.name}", f"{path.name}:{item.lineno}")
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
    return defined, names, attrs


def unused_public(defined, names, attrs):
    """The definitions nothing uses: a method must be read as an attribute, a function or class as either."""

    def used(name):
        cls, _, attr = name.rpartition(".")
        return attr in attrs if cls else name in names or name in attrs

    return {name: where for name, where in defined.items() if not used(name)}


def test_every_public_function_class_and_method_is_used():
    defined, names, attrs = public_definitions_and_uses()
    assert len(defined) > 100  # the walk found the package's public functions, classes and methods
    unused = unused_public(defined, names, attrs)
    assert not unused, f"public names defined but never used in src, tests, demos or bench: {unused}"


def test_gate_catches_a_public_method_nothing_reads(tmp_path):
    src, tests = tmp_path / "pkg", tmp_path / "tests"
    src.mkdir(), tests.mkdir()
    (src / "a.py").write_text(
        "class Box:\n    def size(self):\n        pass\n\n    def left_over(self):\n        pass\n\n\n"
        "def make():\n    return Box()\n\n\ndef unread():\n    pass\n"
    )
    (tests / "test_a.py").write_text("from pkg.a import make, unread\n\nassert make().size() is None\n")
    defined, names, attrs = public_definitions_and_uses(src, (src, tests))
    assert sorted(defined) == ["Box", "Box.left_over", "Box.size", "make", "unread"]
    assert sorted(unused_public(defined, names, attrs)) == ["Box.left_over", "unread"]
