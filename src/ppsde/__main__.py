"""``python -m ppsde`` runs the benchmark command line, as the ``ppsde`` script does."""

from .cli import main

if __name__ == "__main__":
    main()
