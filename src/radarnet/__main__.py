"""`python -m radarnet`: the command-line interface, also from a source
checkout with `src` on PYTHONPATH and nothing installed."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
