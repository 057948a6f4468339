"""`python -m chamferkit`: the same command line as the chamferkit script."""

from .cli import entry

entry()
