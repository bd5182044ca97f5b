"""Run the suite with one BLAS thread.

The solver's linear algebra works on matrices of at most a few thousand
rows, where a second BLAS thread costs more in synchronisation than it
saves: one d = 3 robustness dual solve took about 1 s with two OpenBLAS
threads and 0.13 s with one on a 2-core machine.  pytest loads this file
before any test module, so numpy is not loaded yet and reads the setting.
A value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
