"""Test-session setup: one BLAS thread per process.

Left unpinned, the package's pool threads and OpenBLAS's own threads
oversubscribe small machines, and the bits of matrix-path results depend
on the BLAS thread count.  pytest imports this file before any test
module imports numpy, so the settings take effect; a value already set
in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
