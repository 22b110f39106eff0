"""``python -m delannoy_kit``: the same command line as ``delannoy-kit``."""

from .cli import main

if __name__ == "__main__":
    main()
