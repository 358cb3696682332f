"""The traced benchmark wraps module bindings by name, so renaming or
deleting one of them breaks `perfbench/run.py --trace 1`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_RESOLVE = """
import importlib
import sys

sys.path[:0] = [{src!r}, {bench!r}]
from spans import PATCHES

for mod, attr, name in PATCHES:
    module = importlib.import_module("classgroup." + mod)
    if not callable(getattr(module, attr, None)):
        print(mod, attr, name)
"""


def test_every_traced_binding_resolves():
    # a fresh interpreter, so no other test's patching can hide a miss
    source = _RESOLVE.format(src=str(ROOT / "src"),
                             bench=str(ROOT / "perfbench"))
    out = subprocess.run([sys.executable, "-c", source], capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == []
