"""Source hygiene: every private function and class of collsim is used somewhere in it, every public
one and every defaulted parameter somewhere in the package, the demos or the benchmark, and every
dataclass field is read there.  A use in the tests alone does not count: code that only tests need
does not belong in the package."""

import ast
from pathlib import Path

import collsim

SRC = Path(collsim.__file__).parent
REPO = Path(__file__).resolve().parents[1]
READERS = (SRC, REPO / "demos", REPO / "bench")  # where a public name or a parameter may be used


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
    assert not unused, f"public names defined but never used in src, demos or bench: {unused}"


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


# Defaulted parameters that no call in READERS passes, each kept for the reason given.
UNPASSED_ALLOWED = {
    ("run_plan", "horizon"): "bench/tracing.py's run_plan counter binds the call and reads horizon; it goes with the tracer",
}


def unpassed_parameters(src=SRC, readers=READERS):
    """``{(function, parameter): "file:line"}``: the defaulted parameters under ``src`` that no call under ``readers`` passes.

    Every function and method counts, nested ones too.  A call passes a
    parameter by keyword, by position (after ``self`` or ``cls``) or through
    ``**``.  A ``*`` spread passes none, as its length is unknown: only the
    positional arguments written out count.  A call matches every definition
    of its name, called as a bare name or as an attribute.
    """
    defaults = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    defaults[(node.name, arg.arg)] = (i - skip, f"{path.name}:{node.lineno}")
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        defaults[(node.name, arg.arg)] = (None, f"{path.name}:{node.lineno}")
    keywords, most_positional, spread = set(), {}, set()
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if any(k.arg is None for k in node.keywords):
                    spread.add(name)
                keywords.update((name, k.arg) for k in node.keywords)
                written = sum(not isinstance(a, ast.Starred) for a in node.args)
                most_positional[name] = max(most_positional.get(name, 0), written)
    return {
        (name, param): where
        for (name, param), (position, where) in defaults.items()
        if name not in spread
        and (name, param) not in keywords
        and (position is None or most_positional.get(name, 0) <= position)
    }


def test_every_defaulted_parameter_is_passed_somewhere():
    unpassed = unpassed_parameters()
    left = {key: where for key, where in unpassed.items() if key not in UNPASSED_ALLOWED}
    assert not left, f"defaulted parameters that no call in src, demos or bench passes: {left}"
    passed_now = [key for key in UNPASSED_ALLOWED if key not in unpassed]
    assert not passed_now, f"allowed parameters that some call now passes; drop them from UNPASSED_ALLOWED: {passed_now}"


def test_parameter_gate_catches_a_dead_keyword_and_not_one_passed_by_position(tmp_path):
    src, demos = tmp_path / "pkg", tmp_path / "demos"
    src.mkdir(), demos.mkdir()
    (src / "a.py").write_text(
        "def draw(n, size=2, seed=0, dead=1):\n    pass\n\n\n"
        "def spread(a=0, b=1):\n    pass\n\n\n"
        "def keyed(a=0, b=1):\n    pass\n\n\n"
        "class Box:\n    def fill(self, k=0, *, level=3):\n        pass\n"
    )
    (demos / "d.py").write_text(
        "from pkg.a import Box, draw, keyed, spread\n\n"
        "draw(3, 5, seed=4)\nspread(*[1], 2)\nkeyed(**{'b': 2})\nBox().fill(1, level=2)\n"
    )
    # a * spread passes no parameter, so only spread's first, written-out, argument counts
    assert sorted(unpassed_parameters(src, (src, demos))) == [("draw", "dead"), ("spread", "b")]
    (demos / "d.py").write_text("from pkg.a import Box, draw\n\ndraw(3)\nBox().fill()\n")
    assert sorted(unpassed_parameters(src, (src, demos))) == [
        ("draw", "dead"), ("draw", "seed"), ("draw", "size"), ("fill", "k"), ("fill", "level"),
        ("keyed", "a"), ("keyed", "b"), ("spread", "a"), ("spread", "b"),
    ]


def dataclass_fields_and_reads(src=SRC, readers=READERS):
    """``({"Class.field": "file:line"}, attributes read)``: the fields of the dataclasses under ``src``, the reads under ``readers``.

    A dataclass is a class decorated with ``dataclass`` or ``dataclass(...)``;
    a field is an annotated name in its body.  A read is an attribute loaded
    anywhere; an assignment to an attribute is not a read.
    """

    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    defined, reads = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        defined[f"{node.name}.{item.target.id}"] = f"{path.name}:{item.lineno}"
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
    return defined, reads


def test_every_dataclass_field_is_read():
    defined, reads = dataclass_fields_and_reads()
    assert len(defined) > 40  # the walk found the package's dataclass fields
    unread = {name: where for name, where in defined.items() if name.rpartition(".")[2] not in reads}
    assert not unread, f"dataclass fields that nothing in src, demos or bench reads: {unread}"


def test_field_gate_catches_a_field_nothing_reads(tmp_path):
    src, demos = tmp_path / "pkg", tmp_path / "demos"
    src.mkdir(), demos.mkdir()
    (src / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Box:\n    size: int\n    left_over: int = 0\n\n\n"
        "@dataclasses.dataclass\nclass Bag:\n    items: list\n\n\n"
        "class Plain:\n    note: str = ''\n"
    )
    (demos / "d.py").write_text("from pkg.a import Bag, Box\n\nprint(Box(1).size, Bag([]).items)\nBag([]).left_over = 3\n")
    defined, reads = dataclass_fields_and_reads(src, (src, demos))
    assert sorted(defined) == ["Bag.items", "Box.left_over", "Box.size"]
    assert [name for name in defined if name.rpartition(".")[2] not in reads] == ["Box.left_over"]
