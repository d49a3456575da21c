"""The process entry of ``python -m ihcmine`` and of the ``ihcmine`` console script.

A stage process runs one command and exits, so it sets the cyclic garbage
collector for that life: a generation-0 threshold raised before the CLI is
imported (most of a stage's young collections ran during its imports), and
``gc.freeze()`` once the command returns, so the collections the
interpreter runs at exit walk nothing. ``atexit`` handlers,
``logging.shutdown`` and the flushes of stdout and stderr still run. Every
file is closed by a context manager, not by the collector.
``ihcmine.cli.main`` itself leaves the collector alone.
"""

import gc
import sys
from typing import NoReturn

_GC_THRESHOLD = (50_000, 20, 20)  # CPython's default is (700, 10, 10)


def run() -> NoReturn:
    gc.set_threshold(*_GC_THRESHOLD)
    from .cli import main

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
