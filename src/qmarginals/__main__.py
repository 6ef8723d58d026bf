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

At exit, ``run()`` calls ``gc.freeze()`` after the command has returned
and before it raises ``SystemExit``.  Interpreter finalization runs full
garbage collections over every object the process still holds, about
22,000 once numpy and the library are loaded, and frozen objects are left
out of them; a computing command saves 15 to 30 ms of process CPU that
way on a 2-core host (README, CLI).  Nothing visible changes: ``atexit``
callbacks still run, finalization still flushes stdout and stderr, and a
command has closed its output files before it returns.  Only this
function, which ends the process, freezes.  ``cli.main`` and the library
never do: a caller that goes on running, a test or a long search, would
keep every frozen reference cycle for the rest of its life.
"""

import gc
import os

#: The variables OpenBLAS reads for its thread count; an empty one counts
#: as unset, as it does for OpenBLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if not any(os.environ.get(var) for var in THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import cli  # noqa: E402  numpy loads later, when a command computes


def run() -> None:
    """Run the command in ``sys.argv`` and end the process with its exit code."""
    code = cli.main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
