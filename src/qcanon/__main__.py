"""``python -m qcanon``: the command-line front end in ``qcanon.cli``."""

from .cli import main_and_exit

if __name__ == "__main__":
    main_and_exit()
