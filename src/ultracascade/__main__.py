"""Entry point of ``python -m ultracascade`` and the ``ultracascade``
script.

BLAS runs on one thread unless the caller set ``OPENBLAS_NUM_THREADS``:
the package's only BLAS calls are small oracle products, and an idle
OpenBLAS worker thread costs each process CPU time.  The default is set
before the package loads numpy, which the lazy package ``__init__``
allows; a plain ``import ultracascade`` leaves the environment alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (after the BLAS default)

if __name__ == "__main__":
    raise SystemExit(main())
