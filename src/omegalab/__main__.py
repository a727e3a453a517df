"""``python -m omegalab``: the same command line as the ``omegalab`` script."""

import sys

from .cli import main

sys.exit(main())
