"""`python -m dyckab ...`: the command-line front end of `dyckab.cli`."""

import sys

from .cli import main

sys.exit(main())
