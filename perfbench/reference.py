"""The machine's speed during a run, from a fixed reference block.

The 2-CPU machine this benchmark was defined on drifts in speed by a
quarter or more over minutes, in much the same way for every workload and
for a fixed loop that runs no package code.  A run times such a reference
block about once a second between passes; its mean time over the nominal
time is the run's slowdown, and the end-to-end times are scaled by it to
the nominal speed.  Only the block's own code and NOMINAL_BLOCK_S decide
the scale, so a change to the package moves the scaled metrics as it moves
the raw ones.
"""

import statistics
import time

import numpy as np

# about the median time of one reference block on the 2-CPU machine (Intel
# Xeon, Python 3.11, one OpenBLAS thread) the benchmark was defined on
NOMINAL_BLOCK_S = 0.08
SAMPLE_EVERY_S = 1.0
PYTHON_STEPS = 400_000
NUMPY_STEPS = 120


class MachineSpeed:
    """Reference-block times sampled through a run.

    The block mixes a pure-Python loop with small numpy kernels, since the
    workloads mix both and the drift slows both.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((160, 160))
        self.vector = rng.standard_normal(1 << 17)
        self.times = []
        self.last = None

    def _block(self):
        total = 0
        for i in range(PYTHON_STEPS):
            total += i * i % 7
        for _ in range(NUMPY_STEPS):
            self.matrix @ self.matrix
            self.vector * 1.0001 + self.vector
        return total

    def sample(self):
        started = time.perf_counter()
        self._block()
        self.last = time.perf_counter()
        self.times.append(self.last - started)

    def maybe_sample(self):
        if self.last is None or time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self):
        """Mean block time over the nominal time: above 1 when the machine ran slow."""
        return statistics.fmean(self.times) / NOMINAL_BLOCK_S
