"""``python -m beamest``: the ``beamest`` command line."""

from .cli import main_entry

main_entry()
