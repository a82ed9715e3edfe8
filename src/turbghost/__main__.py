"""``python -m turbghost``: same as the ``turbghost`` command."""

from .cli import entrypoint

entrypoint()
