"""`python -m mapassoc`: the command line of `mapassoc.cli`."""

from .cli import entry

entry()
