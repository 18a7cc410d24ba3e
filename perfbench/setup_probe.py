"""Set-up time of one fresh process: import platoonsec (with numpy and scipy)
and load every scenario document of a workload.

Usage: python3 setup_probe.py REPO_ROOT DOCS_JSON.  Prints the seconds.
"""

import json
import os
import sys
import time


def main() -> int:
    root, docs_path = sys.argv[1], sys.argv[2]
    with open(docs_path, "r", encoding="utf-8") as fh:
        docs = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    from platoonsec import core
    for doc in docs:
        core.load_scenario(doc)
    elapsed = time.perf_counter() - t0
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
