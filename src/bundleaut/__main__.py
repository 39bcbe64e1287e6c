"""`python -m bundleaut`, the same as the `bundleaut` command."""

import sys

from .cli import main

sys.exit(main())
