"""``python -m omnistbc``: the command line front end of ``omnistbc.cli``."""

from .cli import main

__all__ = []

if __name__ == "__main__":
    main()
