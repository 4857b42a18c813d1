"""``python -m qudual ...``: the command line of :mod:`qudual.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
