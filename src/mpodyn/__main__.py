"""``python -m mpodyn``: the command line of :mod:`mpodyn.cli`."""

import sys

from .cli import main

sys.exit(main())
