"""Compare two benchmark result files.

    python3 bench/compare.py BEFORE.json AFTER.json

Lists the output files whose bytes changed (by masked sha256), were added
or were removed, then the metrics of both runs side by side. Two runs of
the same workload and seed on code that should not change behaviour list
no changed outputs: "same bytes, faster". Exits 1 when any output
changed, was added or was removed.
"""

import json
import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    old, new = before["digests"], after["digests"]
    changed = sorted(k for k in old.keys() & new.keys() if old[k]["sha256"] != new[k]["sha256"])
    differences = [
        ("changed", changed),
        ("added", sorted(new.keys() - old.keys())),
        ("removed", sorted(old.keys() - new.keys())),
    ]
    for label, names in differences:
        for name in names:
            print(f"{label:8} {name}")
    print(f"{len(old.keys() & new.keys()) - len(changed)} outputs identical")

    for section in ("metrics", "layers"):
        a, b = before.get(section) or {}, after.get(section) or {}
        for key in [k for k in a if k in b]:
            ratio = f"{b[key] / a[key]:8.3f}x" if a[key] else ""
            print(f"{key:30} {a[key]:16.6f} {b[key]:16.6f} {ratio}")
    return 1 if any(names for _, names in differences) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
