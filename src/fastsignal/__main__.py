"""``python -m fastsignal``: the command-line interface (see ``cli``)."""

from .cli import entry

if __name__ == "__main__":
    entry()
