"""Run the command-line front end as ``python -m contred``."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
