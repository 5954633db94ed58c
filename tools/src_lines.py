"""Source-size ratchet: per-package and total ``wc -l`` of ``src/repro``.

``--check`` (CI) fails when the total exceeds ``tools/src_lines.ceiling``; a
PR that lands below the ceiling lowers it to its own total (ROADMAP aim 2).
"""

import os
import sys

TOOLS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TOOLS), "src", "repro")

totals = {}
for directory, _dirs, files in os.walk(SRC):
    package = os.path.relpath(directory, SRC).split(os.sep)[0]
    for name in files:
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as handle:
                totals[package] = totals.get(package, 0) + len(handle.readlines())
for package, lines in sorted(totals.items()):
    print(f"{lines:7d}  {'(top level)' if package == '.' else package}")
with open(os.path.join(TOOLS, "src_lines.ceiling")) as handle:
    ceiling = int(handle.read())
total = sum(totals.values())
print(f"{total:7d}  total (ceiling {ceiling})")
sys.exit("--check" in sys.argv[1:] and total > ceiling)
