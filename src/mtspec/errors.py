"""Exception types shared across the package."""


class MtspecError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedShape(MtspecError):
    """A group exceeds the enumeration bounds of an exhaustive routine."""


class CompositionMismatch(MtspecError):
    """Two homomorphisms were chained but target(f) != source(g)."""


class OutOfTable(MtspecError):
    """A lookup fell outside the certified homotopy/cohomology tables."""


class Unsupported(MtspecError):
    """A (dimension, cover, degree) combination is not served directly."""


class NotRecorded(MtspecError):
    """The requested generator map is not part of the recorded data."""


class ContradictoryConstraints(MtspecError):
    """Derivation constraints conflict with each other or the tables."""


class OutOfRange(MtspecError):
    """Arguments outside the supported (d, n) range."""


class DimensionMismatch(MtspecError):
    """Manifold operands of different dimensions were combined."""


class MissingKr(MtspecError):
    """A semicharacteristic was required but the descriptor lacks one."""


class InvalidManifold(MtspecError):
    """A manifold descriptor violates a construction invariant."""


class UnknownManifold(MtspecError):
    """A name does not resolve against the manifold catalog."""


class DataFormatError(MtspecError):
    """The certified data file is malformed or inconsistent."""


class InternalCheckError(MtspecError):
    """An internal cross-check failed; the installed data is inconsistent."""
