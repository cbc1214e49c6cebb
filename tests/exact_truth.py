"""The exact per-account moments of ``bench/exact.py``, for tests against exact truth.

``bench/exact.py`` restates the independent-account model without calling
collsim and gives each account's exact mean, variance and fourth central
moment.  Benchmark modules are loaded from their files by
:func:`load_bench_module`, and no bytecode cache is written beside them.
"""

import importlib.util
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    """The module ``bench/<name>.py``, loaded from its file without writing bytecode."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


exact = load_bench_module("exact")
