"""Turing machines as exact sparse integer tensors.

A configuration becomes an order-4 0-1 characteristic tensor and a machine an
order-8 transition tensor; one contraction product drives the evolution, a
second composes transition tensors, and the two satisfy an exact mixed
associativity law.  A direct simulator serves as ground truth throughout.
"""

from .encoding import (
    MachineEncoding,
    decode_config,
    encode_config,
    encode_machine,
    restrict_k_nonzero,
)
from .errors import (
    DEFAULT_CAP,
    MachineFormatError,
    ResourceLimit,
    TensorError,
    TMTensorError,
)
from .harness import (
    Check,
    audit_nnz,
    mixed_assoc_trial,
    random_tensor,
    type2_assoc_trial,
    verify_evolution,
    verify_power,
)
from .machine import (
    Configuration,
    Machine,
    MachineFile,
    RunStatus,
    Trace,
    initial_configuration,
    machine_to_text,
    oracle_run,
    oracle_step,
    parse_document,
    parse_machine,
)
from .products import (
    evolve,
    factors,
    type1,
    type2,
    type2_power,
)
from .tensor import Coord, Dims, Quad, SparseTensor

__version__ = "0.1.0"

__all__ = [
    "Check",
    "Configuration",
    "Coord",
    "DEFAULT_CAP",
    "Dims",
    "Machine",
    "MachineEncoding",
    "MachineFile",
    "MachineFormatError",
    "Quad",
    "ResourceLimit",
    "RunStatus",
    "SparseTensor",
    "TMTensorError",
    "TensorError",
    "Trace",
    "audit_nnz",
    "decode_config",
    "encode_config",
    "encode_machine",
    "evolve",
    "factors",
    "initial_configuration",
    "machine_to_text",
    "mixed_assoc_trial",
    "oracle_run",
    "oracle_step",
    "parse_document",
    "parse_machine",
    "random_tensor",
    "restrict_k_nonzero",
    "type1",
    "type2",
    "type2_assoc_trial",
    "type2_power",
    "verify_evolution",
    "verify_power",
]
