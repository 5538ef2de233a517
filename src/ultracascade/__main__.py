"""Entry point of ``python -m ultracascade`` and the ``ultracascade``
script.

BLAS runs on one thread unless the caller set ``OPENBLAS_NUM_THREADS``:
the package's only BLAS calls are small oracle products, and an idle
OpenBLAS worker thread costs each process CPU time.  The default is set
before the package loads numpy, which the lazy package ``__init__``
allows; a plain ``import ultracascade`` leaves the environment alone.

Once the command line is imported, the start-up heap is frozen
(``gc.freeze``): the collections the interpreter runs at exit then skip
the objects numpy and the package made at import, about 20 ms of every
``validate``.  Only this entry module freezes, for both entry points;
in-process callers import ``ultracascade.cli`` and keep their own
collector.  The process still ends by raising ``SystemExit`` (not
``os._exit``), so a ``runpy`` caller gets the exit code back.
"""

import gc
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (after the BLAS default)

gc.freeze()

if __name__ == "__main__":
    raise SystemExit(main())
