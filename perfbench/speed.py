"""Machine-speed reference: a fixed load the program under test cannot change.

    python3 speed.py

Prints the seconds a fixed mix of interpreter work, small-array numpy calls
and 64x64 matmuls takes, the kind of work the kellylab commands do. The
benchmark runs it in a fresh child right before each command and scales
that command's times by it (see run.py), because the shared machine's speed
drifts by tens of percent over minutes.
"""

import time

import numpy as np


def main():
    x = np.ones(3)
    w = np.random.default_rng(0).standard_normal((64, 64))
    h = np.ones((64, 64))
    start = time.perf_counter()
    for i in range(60000):
        x = x * 1.0000001 + 1e-9
        float(x @ x)
        if i % 20 == 0:
            h = np.tanh(h @ w * 0.01)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
