"""``python -m nla``: the command-line interface of :mod:`nla.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
