"""``python -m ggmlink``: the ggmlink command line, as in ggmlink.cli."""

import sys

from ggmlink.cli import main

sys.exit(main())
