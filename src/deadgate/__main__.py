"""`python -m deadgate`: the command line, exiting with `main`'s code."""

from .cli import entry

if __name__ == "__main__":
    entry()
