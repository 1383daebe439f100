"""`python -m combgas`: the command-line front end, run from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module runs nothing
    sys.exit(main())
