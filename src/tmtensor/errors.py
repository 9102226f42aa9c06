"""Exception types shared across the package, and the entry budget behind
:class:`ResourceLimit`."""

# Budget for every materialisation: predicted composition terms, transition
# tensor entries, random-tensor draws.
DEFAULT_CAP = 10_000_000


class TMTensorError(Exception):
    """Base class for every error raised by this package."""


class MachineFormatError(TMTensorError):
    """A machine file or a tape is malformed: a missing, duplicate or reserved
    name, an unknown token, a misplaced move, or an incomplete transition
    function."""


class TensorError(TMTensorError):
    """A tensor operand, coordinate or encoding is invalid: a quad off its
    bounds, the wrong number of quads, operands that disagree on dims, or a
    tensor that encodes no configuration."""


class ResourceLimit(TMTensorError):
    """A materialisation would exceed the configured entry budget."""
