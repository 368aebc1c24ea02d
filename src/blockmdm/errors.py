"""Shared exception types."""


class BlockMDMError(Exception):
    """Base class for all package errors."""


class DimensionError(BlockMDMError):
    """Operand shapes are incompatible."""


class ParameterError(BlockMDMError):
    """A configuration value or argument is out of its valid range."""


class InputError(BlockMDMError):
    """Input data violates a precondition (e.g. token id out of vocabulary)."""


class ContractError(BlockMDMError):
    """An internal invariant that callers rely on was violated."""


class NonFiniteError(BlockMDMError):
    """A NaN or Inf appeared where only finite values are allowed."""


class CheckpointError(BlockMDMError):
    """Checkpoint file is malformed or incompatible with the expected config."""


class DecodeError(BlockMDMError):
    """Decoding failed; carries the partial trace when available."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class TrainingDivergedError(BlockMDMError):
    """Training hit non-finite loss or teacher logits; carries the last good parameters."""

    def __init__(self, message, params=None, step=None):
        super().__init__(message)
        self.params = params
        self.step = step
