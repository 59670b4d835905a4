"""Exception hierarchy shared across the package.

CLI exit-code mapping: config problems exit 2, data problems exit 3,
numerical failures exit 4 (see cli.EXIT_*).
"""


class NullmarginError(Exception):
    """Base class for all package errors."""


class ConfigError(NullmarginError):
    """Invalid or unknown configuration key/value."""


class DataFormatError(NullmarginError):
    """A file does not conform to the declared CSV or binary layout."""


class DataValidationError(NullmarginError):
    """Input data violates a structural precondition (bad labels, bad splits)."""


class ProtocolError(NullmarginError):
    """Evaluation protocol violation, e.g. a probe identity missing from the gallery."""


class ModelFormatError(DataFormatError):
    """Serialized model container is malformed (bad magic, truncated)."""


class ModelVersionError(ModelFormatError):
    """Serialized model container has an unsupported version."""


class DegenerateDataError(NullmarginError):
    """Data not in general position: fewer null directions than classes - 1.

    Carries the number of directions actually found.
    """

    def __init__(self, message: str, found: int, expected: int):
        super().__init__(message)
        self.found = found
        self.expected = expected


class UndefinedFisherValueError(NullmarginError):
    """Fisher ratio is 0/0 for the given direction."""


class ZeroDistanceError(NullmarginError):
    """All points coincide; no pairwise distance scale exists."""


class EmptyModelError(NullmarginError):
    """The margin eigenproblem produced no positive eigenvalues."""


class NumericalError(NullmarginError):
    """An eigensolver or factorization failed; message carries diagnostics."""


class SelfTrainingError(NullmarginError):
    """A fit inside the self-training loop failed; carries the trace so far."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
