"""A fixed reference program that measures how fast the host runs right now.

Usage: python3 reference.py OUT_FILE

It does the same kinds of work as the relgnn CLI and none of its code:
interpreter start and `import numpy`, pure-Python dict, list and JSON work,
small dense numpy ops, masks over arrays of a few tens of thousands of
elements, and a file write. The benchmark runs it next to every invocation and
divides by its time, so that the host's speed, which varies by a factor of up
to two over minutes on a shared machine, cancels out of the reported times.
Its inputs are fixed; changing this file changes every normalised metric.
"""
import json
import sys

import numpy as np


def main(out_path: str) -> None:
    rng = np.random.default_rng(0)

    # dict, list and JSON work, as in loading CSVs and writing reports
    rows = [{"id": i, "x": float(v), "tags": [str(j) for j in range(i % 7)]}
            for i, v in enumerate(rng.normal(size=12000))]
    text = "\n".join(json.dumps(r, sort_keys=True) for r in rows)
    groups: dict[int, list[float]] = {}
    for line in text.splitlines():
        record = json.loads(line)
        groups.setdefault(len(record["tags"]), []).append(record["x"])

    # many small dense ops, as in the autodiff engine
    a = rng.normal(size=(64, 32))
    w = rng.normal(size=(32, 32)) * 0.1
    for _ in range(1500):
        h = np.maximum(a @ w, 0.0)
        a = 0.99 * a + 0.01 * h[rng.integers(0, 64, 64)]

    # masks over mid-sized arrays, as in the subgraph sampler
    n = 30000
    src = rng.integers(0, n, 2 * n)
    selected = np.zeros(n, dtype=bool)
    picked = 0
    for i in range(400):
        selected[:] = False
        selected[i::400] = True
        picked += int(np.count_nonzero(selected[src]))

    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write(f"\n{len(groups)} {float(a.sum())!r} {picked}\n")


if __name__ == "__main__":
    main(sys.argv[1])
