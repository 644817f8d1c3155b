"""The command line with every analysis module loaded.

The computing subcommands live in :mod:`emitternet._commands` and the
parser, ``main``, the summary writer, the output stage and ``report`` in
:mod:`emitternet._front`; ``main`` loads only the analysis modules of the
command it runs. Importing this module loads every one of them.
"""
from . import config, lineio, overlap, ple, register, spatial, spectral  # noqa: F401
from ._front import entrypoint, main

__all__ = ["main", "entrypoint"]
