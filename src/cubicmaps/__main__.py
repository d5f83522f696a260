"""Run the command-line interface: python -m cubicmaps ..."""

import sys

from . import cli

sys.exit(cli.main())
