"""Process entry point of ``python -m cqedkit`` and the ``cqedkit`` script."""

import gc
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run() -> int:
    """Run the command line on ``sys.argv`` and return its exit code.

    BLAS and OpenMP are pinned to one thread before ``.cli`` imports
    numpy, which reads the variables once: the eigensolvers' last bits,
    and so the sweep CSVs, depend on the thread count, and a second
    thread buys no speed. A value the caller set is overridden, so a
    verb's bytes depend on its inputs alone.

    The process ends right after, so the collector is frozen on the way
    out: the exit-time collection then skips every object alive, which
    took 30-45 ms of a verb. Shutdown still runs atexit handlers and
    flushes the streams, and every output file is already closed.
    """
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    from .cli import main

    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
