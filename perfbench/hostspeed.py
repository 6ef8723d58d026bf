"""Host-speed probe: a fixed piece of work that does not use the package.

On a shared virtual machine the host runs the same code up to 1.8 times
slower for minutes at a time, and the process's CPU time grows with the
wall time, so neither shows the program's own cost.  The benchmark runs
``probe`` after every operation.  The ratio of its median time in a stretch
of the run to ``REFERENCE_S`` is the host's slowness over that stretch; the
time metrics are divided by it (see README.md, "End-to-end metrics").

The work mixes what the workloads spend their time on: an interpreter-bound
loop over floats and complex numbers, and small numpy and LAPACK calls.
"""

from time import perf_counter

import numpy as np

#: About the median time of ``probe`` on the host the baseline was recorded
#: on (2-vCPU virtual machine, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31;
#: it read 5 to 8 ms).  Normalised times are the times a host shows while
#: its probe reads this.
REFERENCE_S = 0.0065

_rng = np.random.default_rng(0)
_SYM = _rng.standard_normal((24, 24))
_SYM = _SYM + _SYM.T


def _work() -> float:
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5 - acc * 1e-6
    acc += sum((z * z.conjugate()).real for z in (complex(i, -i) for i in range(2000))) * 1e-12
    for _ in range(40):
        _, vecs = np.linalg.eigh(_SYM)
        acc += float((vecs @ _SYM).trace())
    return acc


def probe() -> float:
    """Seconds taken by one run of the fixed work."""
    start = perf_counter()
    _work()
    return perf_counter() - start
