"""Test-session setup: one BLAS thread per process.

Left unpinned, the package's pool threads and OpenBLAS's own threads
oversubscribe small machines, and the bits of matrix-path results depend
on the BLAS thread count.  pytest imports this file before any test
module imports numpy, and importing `typical_clt.cli` loads no numpy, so
the CLI's own pin takes effect here too; a value already set in the
environment wins.
"""

from typical_clt.cli import pin_blas_threads

pin_blas_threads()
