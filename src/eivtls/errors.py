"""Exception hierarchy shared across the package.

Numerical failures (estimation breaking down on a particular dataset) are kept
distinct from configuration errors so the CLI can map them to different exit
codes.
"""


class EivError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EivError):
    """Invalid configuration, parameters, or input files."""


class NumericalError(EivError):
    """A computation failed on otherwise valid input."""


# -- configuration / precondition violations ---------------------------------

class DimensionMismatch(ConfigError):
    pass


class InvalidParams(ConfigError):
    pass


class RankDeficientDesign(ConfigError):
    pass


class SupportTooLarge(ConfigError):
    pass


class InsufficientData(ConfigError):
    pass


class MissingMetadata(ConfigError):
    pass


class TooFewSamples(ConfigError):
    pass


class EmptySample(ConfigError):
    pass


class NotSymmetric(ConfigError):
    pass


class BlockTooLong(ConfigError):
    pass


# -- numerical failures ------------------------------------------------------

class NotPositiveDefinite(NumericalError):
    pass


class NonGeneric(NumericalError):
    """The eigenvector's last entry is (numerically) zero, so no estimate exists."""


class IllConditioned(NumericalError):
    """The estimate is not identifiable at working precision."""


class SingularCovariance(NumericalError):
    pass


class DegenerateVariance(NumericalError):
    pass


class TooManyRefitFailures(NumericalError):
    pass
