"""`python -m capeseg`: the same command line as the `capeseg` script."""

import sys

from .cli import main

sys.exit(main())
