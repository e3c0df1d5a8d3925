"""``python -m dslice``: the ``dslice`` command line."""

import sys

from .cli import main

sys.exit(main())
