"""`python -m sdglab`: the `sdglab` command without its console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
