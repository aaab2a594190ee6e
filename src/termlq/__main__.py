"""``python -m termlq``: the command line front end (see termlq.cli)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
