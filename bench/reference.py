"""Reference probe: fixed work that shares no code with manyworlds.

The benchmark runs this as a fresh process before every pass. It does the
same kinds of work as the workloads (interpreter start-up, the numpy
import, a Python loop, per-seed generator set-up, many small array calls
and eigensolves, and passes over a large array), so its wall time tracks
the speed of the machine at that moment for that mix; dividing by it
removes the machine's drift from the reported times.
"""

import numpy as np

total = sum(i * i for i in range(500_000))
for t in range(4000):
    np.random.default_rng(np.random.SeedSequence((12345, t))).standard_normal(16)
rng = np.random.default_rng(0)
for _ in range(40):
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    m = np.outer(v, v.conj())
    np.linalg.eigvalsh(m[:16, :16])
    np.abs(m.conj().T - m).max()
big = np.zeros((1024, 1024), dtype=np.complex128)
for _ in range(3):
    big += 1.0
    big.conj().T.copy()
