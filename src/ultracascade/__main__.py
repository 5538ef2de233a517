"""Entry point of ``python -m ultracascade`` and the ``ultracascade``
script: both call ``main``, and importing this module changes nothing.

``main`` runs BLAS on one thread unless the caller set
``OPENBLAS_NUM_THREADS``: the package's only BLAS calls are small oracle
products, and an idle OpenBLAS worker thread costs each process CPU
time.  The default is set before the command line loads numpy, which
the lazy package ``__init__`` allows.  Once the command line is
imported, ``main`` freezes the start-up heap (``gc.freeze``): the
collections the interpreter runs at exit then skip the objects numpy
and the package made at import, about 20 ms of every ``validate``.
In-process callers import ``ultracascade.cli`` and keep their own
collector.  The process still ends by raising ``SystemExit`` (not
``os._exit``), so a ``runpy`` caller gets the exit code back.
"""

import gc
import os


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run_command_line

    gc.freeze()
    return run_command_line()


if __name__ == "__main__":
    raise SystemExit(main())
