"""Exception hierarchy shared across the package.

The command line maps each base class to one exit code: ``InvalidParams``
(bad configuration, parameters or input files) exits 2, and
``NumericalError`` (a computation that failed on otherwise valid input)
exits 3.  ``NonGeneric`` and ``IllConditioned`` are the two ways the TLS
problem itself fails; the experiment reports count each of them.
"""


class EivError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(EivError):
    """Invalid configuration, parameters, or input files."""


class NumericalError(EivError):
    """A computation failed on otherwise valid input."""


class NonGeneric(NumericalError):
    """The eigenvector's last entry is (numerically) zero, so no estimate exists."""


class IllConditioned(NumericalError):
    """The estimate is not identifiable at working precision."""
