"""`python -m rqcx`: the rqcx command, for a checkout that is not installed."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
