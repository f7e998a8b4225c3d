"""The machine's speed during a run, from a fixed reference chunk of work.

On a shared virtual machine the CPU time of the same work drifts by tens of
percent over tens of seconds (other guests on the host take turbo headroom,
memory bandwidth, cache and hyperthread siblings), and every op class of a
run moves together: a fixed document's op took 23 ms in one 30 s run and
29 ms in the next, and the reference chunk below took 20 ms in one minute
and 43 ms in another.  A run therefore times, between ops and off the op
clock, a chunk of work that shares no code with the program.  ``scale()``
is the chunk's nominal CPU time over its median measured time in the run,
raised to the power ``TRACKING``; the benchmark multiplies its op and
set-up times by it, which reports them at about the speed at which the
chunk takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# CPU time of one reference chunk at the reference speed: a round figure
# within what it took on a shared 2-vCPU Intel Xeon (Python 3.11, numpy 2.4,
# one OpenBLAS thread), 20-43 ms.
REFERENCE_MS = 25.0
# CPU seconds of ops between two reference chunks: about 10 % on top of the
# ops, spread evenly over the run.
EVERY_S = 0.25
# How far the ops' CPU time follows the chunk's as the host's speed drifts:
# over 90 runs of 30 s (three workloads, three sets of ten), the slope of log
# op CPU time on log chunk CPU time within a set was 0.72 (0.43-0.95 for
# single metrics).  Scaling by the full ratio over-corrected: in one set it
# widened the spread of campaign's ops_per_s from 0.07 to 0.12.
TRACKING = 0.75
ROUNDS_4D = 8


def reference_chunk(v3: np.ndarray, v4: np.ndarray, buf: np.ndarray) -> int:
    """About 25 ms of work in three parts of similar length: integer and set
    work in the interpreter, boolean and float32 work on 32**3 arrays that
    stay in cache, and boolean work on 32**4 arrays that do not, written
    into ``buf`` so that the chunk allocates no large temporaries.  Any one
    part alone followed the ops' drift less well than the three together."""
    total = 0
    for a in range(1 << 8):
        for b in range(1 << 8):
            if a & ~b == 0:
                total += (a | b) ^ (a & b)
    sets = {frozenset(i ^ j for j in range(i % 5 + 2)) for i in range(3000)}
    total += len(json.dumps(sorted(sorted(s) for s in sets)[:200]))
    for _ in range(45):
        meets = (v3 & v3.transpose(1, 0, 2)).any(axis=2) | v3.all(axis=1)
        flat = v3.reshape(32, -1).astype(np.float32)
        total += int(meets.sum()) + int((flat @ flat.T)[0, 0])
    for _ in range(ROUNDS_4D):
        np.bitwise_and(v4, v4.transpose(1, 0, 2, 3), out=buf)
        total += int(np.count_nonzero(buf.any(axis=3)))
        np.bitwise_or(buf, v4.transpose(0, 1, 3, 2), out=buf)
        total += int(np.count_nonzero(buf))
    return total


class SpeedProbe:
    """Reference chunks timed through one run."""

    def __init__(self) -> None:
        self.chunk_ms: list[float] = []
        self._v3 = (np.arange(32**3, dtype=np.int64).reshape(32, 32, 32) * 2654435761 % 11) < 5
        # built from the 32**3 array, so no 8-byte array of 32**4 entries
        # ever raises the process's peak memory
        self._v4 = self._v3[:, :, :, None] ^ self._v3[:, None, :, :]
        self._buf = np.empty_like(self._v4)

    def sample(self) -> None:
        start = time.process_time()
        reference_chunk(self._v3, self._v4, self._buf)
        self.chunk_ms.append((time.process_time() - start) * 1e3)

    def keep_up(self, op_cpu_s: float) -> None:
        """Sample once per ``EVERY_S`` of op CPU time so far."""
        while len(self.chunk_ms) * EVERY_S <= op_cpu_s:
            self.sample()

    def scale(self) -> float:
        return (REFERENCE_MS / statistics.median(self.chunk_ms)) ** TRACKING
