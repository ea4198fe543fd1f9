"""Process entry point of ``python -m cqedkit`` and the ``cqedkit`` script."""

import gc

from .cli import main


def run() -> int:
    """Run the command line on ``sys.argv`` and return its exit code.

    The process ends right after, so the collector is frozen on the way
    out: the exit-time collection then skips every object alive, which
    took 30-45 ms of a verb. Shutdown still runs atexit handlers and
    flushes the streams, and every output file is already closed.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
