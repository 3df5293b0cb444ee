"""``python -m latlab``: the same command line as the ``latlab`` script."""

from .cli import main

if __name__ == "__main__":
    main()
