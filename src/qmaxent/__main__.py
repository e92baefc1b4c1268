"""``python -m qmaxent`` and the ``qmaxent`` console script.

Each command runs one solve in a fresh process, where starting Python,
importing numpy and reading the input file take about as long as the
solve or longer, so a BLAS thread pool costs more to start and feed than
it saves (README gives the timings). OpenBLAS sizes that pool when numpy
loads, so main sets OPENBLAS_NUM_THREADS=1 before it imports the
command-line module (and with it numpy), unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is already set. The solves run on one thread whatever
this is (qmaxent.linalg.single_blas_thread), but after numpy's import an
idle OpenBLAS worker spins on a core: an update of a golden file takes
about 200 ms of CPU on two threads against 135 ms on one (README).
"""

import os
import sys


def main(argv=None) -> int:
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
