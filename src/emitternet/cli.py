"""The command line with every analysis module loaded.

Every subcommand, the parser and ``main`` live in :mod:`emitternet._front`,
which loads numpy and the analysis modules only inside the command that
uses them. Importing this module loads every one of them.
"""
from . import config, lineio, overlap, ple, register, spatial, spectral  # noqa: F401
from ._front import entrypoint, main

__all__ = ["main", "entrypoint"]
