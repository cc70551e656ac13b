"""Exception types raised across the package.

Two broad families matter for the CLI exit-code mapping: ``ConfigError``
(bad input, exit 2) and ``NumericError`` (a solve or guard failed at run
time, exit 3). ``ActionTimeExceedsTau`` gets its own exit code (4) because
it identifies the offending reconstruction point.
"""


class PipescopeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PipescopeError):
    """Invalid input data or configuration."""


class NumericError(PipescopeError):
    """A numerical guard or solve failed."""


# network validation
class InvalidNetworkSpec(ConfigError):
    pass


class CycleDetected(InvalidNetworkSpec):
    pass


class Disconnected(InvalidNetworkSpec):
    pass


class DegreeTwoVertex(InvalidNetworkSpec):
    pass


class NonLeafX0(InvalidNetworkSpec):
    pass


class NonpositiveLength(InvalidNetworkSpec):
    pass


class NonpositiveArea(InvalidNetworkSpec):
    pass


# geometry
class InvalidPoint(ConfigError):
    pass


class PointIsJunction(InvalidPoint):
    pass


# forward simulation
class UnstableConfig(ConfigError):
    pass


class MismatchedSeriesLength(ConfigError):
    pass


# IRM construction
class HorizonTooLarge(NumericError):
    """Wavefront event count exceeded the termination guard."""


class NonuniformPipeArea(ConfigError):
    """The wavefront oracle requires a constant area on every pipe."""


class WindowTooLarge(ConfigError):
    pass


class OutOfRange(ConfigError):
    pass


# inversion
class HorizonTooShort(ConfigError):
    pass


class ActionTimeExceedsTau(PipescopeError):
    """A reconstruction point needs action times longer than tau."""


class SingularSystem(NumericError):
    pass


class TooFewPoints(ConfigError):
    pass
