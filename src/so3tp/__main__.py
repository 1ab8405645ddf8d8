"""``python -m so3tp``: the ``so3tp`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
