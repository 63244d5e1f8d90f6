"""Fixed reference task: the yardstick the end-to-end times are divided by.

    python3 bench/reference.py

It never imports asrrkit, so no change to the package can move it.  It
does the two kinds of work the workloads do: start an interpreter and
import numpy (start-up), then eliminate small complex systems in a Python
loop and format floats to 12 significant digits (compute).  It prints the
compute seconds; the rest of its wall time is start-up.  Run next to the
units of a workload, it tracks how fast the shared machine is at that
moment for each kind of work, and the ratio of a unit's time to it stays
put while the machine's speed drifts.
"""

import time

import numpy as np


def main() -> int:
    start = time.perf_counter()
    a = np.array([[4.0, 1.0, 0.5, 0.0], [1.0, 3.0, 0.0, 0.2],
                  [0.5, 0.0, 2.0, 0.1], [0.0, 0.2, 0.1, 1.5]], dtype=complex)
    acc = 0.0
    for i in range(3000):
        m = a + 1j * (i % 7) * np.eye(4)
        for col in range(4):
            m[col + 1:] -= np.outer(m[col + 1:, col] / m[col, col], m[col])
        acc += abs(m[3, 3])
    text = ",".join(f"{x:.12g}" for x in np.linspace(0.0, acc, 90_000))
    print(time.perf_counter() - start)
    return 0 if text else 1


if __name__ == "__main__":
    raise SystemExit(main())
