"""Fixed reference work that times how fast the host runs at this moment.

    python3 -I perfbench/probe.py

``-I`` keeps the program under test out of ``sys.path``, so no change to
emitternet can change this probe's time. Like an emitternet command, it
starts an interpreter, imports numpy, runs a pure-Python loop and runs
numpy kernels; ``run.py`` runs it before and after every timed process and
scales that process's time by it, which takes the host's speed drift out
of the gated metrics.
It prints one checksum line, which ``run.py`` checks.
"""
import numpy as np


def main() -> None:
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(8):
        a = rng.random((250, 250))
        hits += int(np.count_nonzero(np.abs(a[:, None, :40] - a[None, :, :40]) < 0.01))
    print(f"probe {total} {hits}")


if __name__ == "__main__":
    main()
