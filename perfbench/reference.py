"""Fixed reference kernel that calibrates the benchmark's times to the host's speed.

The shared host this benchmark runs on changes speed on its own, by up to
2.5 times when another tenant loads the same core, and it stays in one state
for minutes.  A raw wall time therefore measures the host as much as fedsim.
So run.py times this kernel right before and right after every timed call,
and scales the call's wall time by ``REF_SECONDS`` over the mean of those two
kernel times.  The result is in calibrated seconds: the time the call would
take on a host where the kernel takes exactly ``REF_SECONDS``.

The kernel never calls fedsim, so a change to fedsim moves a calibrated time
exactly as much as it moves the wall time at a fixed host speed.  Its work is
fixed (constant data, a fixed RNG seed) and is shaped like fedsim's inner
loops: small matrix-vector products with Gaussian noise and vector updates,
as in the quadratic oracle and the local SGD loop, and a small
tanh-layer forward and backward pass, as in the MLP oracle, all driven from
Python.  Its arrays take about 2 MB.
"""

from __future__ import annotations

import time

import numpy as np

REF_SECONDS = 0.1  # about the kernel's time on the 2-vCPU host described in README.md
REPS = 300


class Reference:
    def __init__(self):
        gen = np.random.default_rng(20230211)
        self.hessians = gen.standard_normal((20, 100, 100)) * 0.01
        self.features = gen.standard_normal((100, 50))
        self.hidden = gen.standard_normal((50, 8))
        self.head = gen.standard_normal(8)
        self.seconds()  # warm-up: first-touch allocation and caches

    def run(self) -> np.ndarray:
        gen = np.random.default_rng(1)
        x = np.zeros(100)
        iterates = []
        for _ in range(REPS):
            for h in self.hessians:
                x = x - 0.02 * (h @ x + 0.1 * gen.standard_normal(100))
            act = np.tanh(self.features @ self.hidden)
            out = act @ self.head
            grad = self.features.T @ ((1.0 - act * act) * np.outer(out, self.head))
            iterates.append(x + grad.sum())
        return np.mean(iterates, axis=0)

    def seconds(self) -> float:
        """Wall time of one kernel run."""
        started = time.perf_counter()
        self.run()
        return time.perf_counter() - started
