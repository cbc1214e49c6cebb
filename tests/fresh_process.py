"""Run a Python script in a fresh interpreter that imports this checkout's collsim."""

import os
import subprocess
import sys
from pathlib import Path

import collsim


def run_fresh(script: str) -> str:
    """The standard output of ``script``, run by a new interpreter; raises if it fails."""
    paths = [str(Path(collsim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
