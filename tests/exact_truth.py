"""The exact per-account moments of ``bench/exact.py``, for tests against exact truth.

``bench/exact.py`` restates the independent-account model without calling
collsim and gives each account's exact mean, variance and fourth central
moment.  It is loaded from its file, and no bytecode cache is written beside it.
"""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "bench" / "exact.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_exact", _PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


exact = _load()
