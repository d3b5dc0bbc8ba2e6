"""Run the command-line front end as ``python -m easyqg``."""

import sys

from .cli import main

sys.exit(main())
