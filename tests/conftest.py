"""Suite-wide settings.

OpenBLAS is pinned to one thread before numpy loads, unless the caller set
it, so training splits each step across the CPUs (see
`pipeline._step_processes`), as `OPENBLAS_NUM_THREADS=1 monopgc train` does.
Results are the same bits on any share count; the training studies just
finish sooner.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
