"""Run a Python snippet under ``python -O``, where ``assert`` statements are
stripped, to show that a check still holds there."""

import os
import subprocess
import sys
from pathlib import Path


def run_under_O(source, timeout=None):
    """Stdout lines of ``source`` run by ``python -O`` with src/ importable;
    raises subprocess.TimeoutExpired after ``timeout`` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", source],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True,
                         timeout=timeout)
    return out.stdout.splitlines()
