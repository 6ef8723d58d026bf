"""Console entry: ``python -m qmarginals`` and the ``qmarginals`` script.

OpenBLAS starts its thread pool when numpy loads, and that pool costs CPU
time in every process; on two cores it saved no wall time even for a
300 x 300 Sinkhorn run (README, Install).  So unless the user chose a
thread count through one of the variables OpenBLAS reads, this module asks
for one thread.  OpenBLAS reads them only once, when numpy loads, which is
why the default is set here, when the process starts, and not in ``cli``:
importing the library never changes the environment.  Importing ``cli``
loads no numpy; a command loads it once it has read its input, so a usage
error or unreadable input exits without starting OpenBLAS at all.
"""

import os

#: The variables OpenBLAS reads for its thread count; an empty one counts
#: as unset, as it does for OpenBLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if not any(os.environ.get(var) for var in THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import run  # noqa: E402  numpy loads later, when a command computes

if __name__ == "__main__":
    run()
