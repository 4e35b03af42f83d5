"""`python -m d1ring`: the d1 command line, runnable from a checkout
without an install (PYTHONPATH=src python -m d1ring ...)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
