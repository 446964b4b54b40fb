"""``python -m mtzeta ...`` runs the ``mtz`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
