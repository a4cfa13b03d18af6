"""``python -m poisfact``: the ``poisfact`` command, run from a checkout that is not installed."""

import sys

from .cli import main

sys.exit(main())
