"""The error contract: what the command line exits with for each kind.

An ``MtspecError`` refuses the caller's input, and a ``DataFormatError``
the data file; both exit 2.  Any other exception is an internal failure
and exits 3, an ``InternalCheckError`` (a consistency check of the data or
of the proof failed) as well as a ``ValueError`` from a broken invariant.
"""


class MtspecError(ValueError):
    """The input or the data file was refused (exit 2)."""


class DataFormatError(MtspecError):
    """The data file is unreadable, malformed or inconsistent."""


class InternalCheckError(Exception):
    """An internal cross-check failed (exit 3); deliberately no MtspecError."""
