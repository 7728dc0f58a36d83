"""Set-up time of one workload in a fresh interpreter: import the
package, then parse and build every instance of the workload (the
triple and its shifted Newton region with the face lattice).  For the
sweep this includes drawing the instances from the seed.

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]

Prints one JSON object: the seconds taken, the instance count and
digest, and the instance texts.
"""

import json
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toric_cartier.fixed_points import ShiftedNewton  # noqa: E402
from toric_cartier.instance import build_triple, parse_instance  # noqa: E402

import workloads  # noqa: E402


def main():
    name, seed, smoke = sys.argv[1], int(sys.argv[2]), "--smoke" in sys.argv[3:]
    texts = workloads.instance_texts(name, seed, smoke)
    for text in texts:
        tr, _ = build_triple(parse_instance(text))
        ShiftedNewton.from_triple(tr)
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "count": len(texts), "digest": workloads.digest(texts), "texts": texts}))


if __name__ == "__main__":
    main()
