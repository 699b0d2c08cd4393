"""The software a run used, recorded in every manifest.json and policy
snapshot so that two runs' artifacts alone tell whether they shared an
interpreter, numpy and BLAS build."""

from __future__ import annotations

import os
import platform

import numpy as np


def software_environment() -> dict:
    """Python, numpy and BLAS versions, the BLAS thread count and the
    machine.

    The thread count is the one OPENBLAS_NUM_THREADS requests; it is None
    when that variable is unset (or not a count), in which case OpenBLAS
    picks its own default.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(threads) if threads.isdigit() else None,
            "machine": platform.machine()}
