"""Time `import classgroup` plus `load_field_file` on each field file given.

Run in a fresh interpreter from the checkout root:
    python3 perfbench/setup_probe.py FIELD.json [FIELD.json ...]
Prints the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")
import classgroup  # noqa: E402,F401
from classgroup.field import load_field_file  # noqa: E402

for path in sys.argv[1:]:
    load_field_file(path)
print(repr(time.perf_counter() - t0))
