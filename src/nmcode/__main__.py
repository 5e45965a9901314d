"""`python -m nmcode`: the command-line interface of `nmcode.cli`."""

import sys

from .cli import main

sys.exit(main())
