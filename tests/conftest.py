"""Pin BLAS and OpenMP to one thread for the whole suite, as the benchmark
does (perfbench/run.py THREAD_VARS): the gatemon solves then take the same
time whether or not another process is busy, and their last bits do not
depend on the thread count. Set before numpy loads, since OpenBLAS reads
them once; a value already in the environment is kept. Subprocesses the
tests start inherit them.
"""

import os
import types

import pytest

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")


@pytest.fixture
def old_outdir_set(monkeypatch):
    """Set the environment variable that once put relative output paths
    under its directory, to "rel": nothing may read it now. Its name is
    spelled in two parts so that a search for it finds no live use."""
    monkeypatch.setenv("CQEDKIT" + "_OUTDIR", "rel")


@pytest.fixture
def fail_lapack(monkeypatch):
    """``fail_lapack(routine, info=1)`` makes that LAPACK wrapper of
    cqedkit.spectra report ``info`` after doing its work, as a failed LAPACK
    call does: info > 0 for a numerical failure, info < 0 for an argument
    LAPACK refused."""
    from cqedkit import spectra

    def fail(routine, info=1):
        real = spectra._flapack()

        def failing(*args, **kwargs):
            return (*getattr(real, routine)(*args, **kwargs)[:-1], info)

        fake = {w: getattr(real, w) for w in spectra.LAPACK_WRAPPERS}
        fake[routine] = failing
        monkeypatch.setattr(spectra, "_flapack", lambda: types.SimpleNamespace(**fake))

    return fail
