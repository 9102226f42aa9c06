"""Exception types shared across the package, and the entry budget behind
:class:`ResourceLimit`."""

# Budget for every materialisation: predicted composition terms, transition
# tensor entries, random-tensor draws.
DEFAULT_CAP = 10_000_000


class TMTensorError(Exception):
    """Base class for every error raised by this package."""


class MachineFormatError(TMTensorError):
    """A machine description violates the file format or a machine invariant."""


class MissingField(MachineFormatError):
    """A required header line (states/start/halt/symbols) is absent."""


class ReservedName(MachineFormatError):
    """The reserved state name "q0" was declared."""


class DuplicateName(MachineFormatError):
    """A state, symbol, or transition rule was declared twice."""


class IncompleteDelta(MachineFormatError):
    """Some (symbol, non-halt state) pair has no transition rule."""


class UnknownToken(MachineFormatError):
    """A token does not resolve to a known name, directive, or move."""


class TensorError(TMTensorError):
    """Base class for tensor construction and access errors."""


class IndexOutOfRange(TensorError):
    """A quad component lies outside the bounds fixed by Dims."""


class ArityMismatch(TensorError):
    """A coordinate has the wrong number of quads for the tensor's shape."""


class DimsMismatch(TensorError):
    """Operands or arguments disagree on their index bounds."""


class NotCharacteristic(TensorError):
    """A tensor is not the characteristic encoding of any configuration."""


class ResourceLimit(TMTensorError):
    """A materialisation would exceed the configured entry budget."""
