"""``python -m dcbruhat``: the same command line as the ``dcbruhat`` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
