"""``python3 -m iqsl2``: the ``iqsl2`` command, also from a checkout with
no install (``PYTHONPATH=src python3 -m iqsl2 table --family ev --max 6``)."""

import sys

from .cli import main

# imported as iqsl2.__main__ (pkgutil walks, for one), it runs nothing
if __name__ == "__main__":
    sys.exit(main())
