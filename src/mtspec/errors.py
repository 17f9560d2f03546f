"""The error contract: what the command line exits with for each kind.

An ``MtspecError`` refuses the caller's input, and a ``DataFormatError``
the data file; both exit 2.  Any other exception is an internal failure
and exits 3, an ``InternalCheckError`` (a consistency check of the data or
of the proof failed) as well as a ``ValueError`` from a broken invariant.
Each record checks its invariants in ``__new__``, and ``checked`` makes
its copies (``_make``, ``_replace``) do so too.
"""


class MtspecError(ValueError):
    """The input or the data file was refused (exit 2)."""


class DataFormatError(MtspecError):
    """The data file is unreadable, malformed or inconsistent."""


class InternalCheckError(Exception):
    """An internal cross-check failed (exit 3); deliberately no MtspecError."""


def checked(record):
    """The named-tuple record class, its _make (and so _replace) built
    through its __new__, so that no copy skips the checks made there."""
    record._make = classmethod(lambda cls, fields: cls(*fields))
    return record
