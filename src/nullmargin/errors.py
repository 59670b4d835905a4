"""Exception hierarchy shared across the package.

Every error derives from one of three base classes, and the base class is
the CLI's exit code: ConfigError exits 2, DataError exits 3 and
NumericalError exits 4 (see cli.main).
"""


class NullmarginError(Exception):
    """Base class for all package errors."""


class ConfigError(NullmarginError):
    """Invalid or unknown configuration key/value."""


class DataError(NullmarginError):
    """The input data or an input/output path cannot be used."""


class NumericalError(NullmarginError):
    """An eigensolver or factorization failed; message carries diagnostics."""


class DataFormatError(DataError):
    """A file does not conform to the declared CSV or binary layout."""


class DataValidationError(DataError):
    """Input data violates a structural precondition (bad labels, bad splits)."""


class ProtocolError(DataError):
    """Evaluation protocol violation, e.g. a probe identity missing from the gallery."""


class ModelFormatError(DataFormatError):
    """Serialized model container is malformed (bad magic, truncated)."""


class ModelVersionError(ModelFormatError):
    """Serialized model container has an unsupported version."""


class DegenerateDataError(DataError):
    """Data not in general position: fewer null directions than classes - 1."""


class ZeroDistanceError(DataError):
    """All points coincide; no pairwise distance scale exists."""


class EmptyModelError(NumericalError):
    """The margin eigenproblem produced no positive eigenvalues."""


class SelfTrainingError(NumericalError):
    """A fit or mining step inside the self-training loop failed; the message
    names the iteration."""
