"""`python -m biont`: the `biont` command, runnable from a checkout."""

import sys

from . import cli

sys.exit(cli.main())
