"""The process entry: ``python -m pqvw`` and the installed ``pqvw`` script.

A run is one process, so once the command has finished, every object still
alive lives until exit; `gc.freeze` moves them all (site's included) to the
permanent generation, and the collections at interpreter shutdown skip
them.  In-process callers of `cli.main` keep normal garbage collection.
"""
import gc

from . import cli


def main() -> None:
    try:
        cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
