"""``python -m bchrome``: the same command line as the ``bchrome`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
