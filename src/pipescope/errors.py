"""Exception types raised across the package.

Each family carries the CLI's exit code and stderr label, and its subclasses
inherit them; the CLI prints ``pipescope: {label}: {message}`` and exits:

    ConfigError           2  configuration error  bad input or configuration
    NumericError          3  numeric error        a solve or guard failed at run time
    ActionTimeExceedsTau  4  point out of reach   a point needs action times past tau
    any other             2  error

``_allocating`` guards every array the input sizes: it refuses one past
physical memory before allocating it, and turns an allocation numpy
refuses into ``OutOfRange``.
"""

import os
from contextlib import contextmanager


class PipescopeError(Exception):
    """Base class for all package-specific errors."""
    exit_code, label = 2, "error"


class ConfigError(PipescopeError):
    """Invalid input data or configuration."""
    label = "configuration error"


class NumericError(PipescopeError):
    """A numerical guard or solve failed."""
    exit_code, label = 3, "numeric error"


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


class OutOfRange(ConfigError):
    pass


# inversion
class HorizonTooShort(ConfigError):
    pass


class ActionTimeExceedsTau(PipescopeError):
    """A reconstruction point needs action times longer than tau."""
    exit_code, label = 4, "point out of reach"


class SingularSystem(NumericError):
    pass


class TooFewPoints(ConfigError):
    pass


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where the system does not say."""
    try:
        return max(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), 0)
    except (AttributeError, OSError, ValueError):
        return 0


@contextmanager
def _allocating(what: str, n_bytes: int = 0):
    """Refuse ``what``, arrays of ``n_bytes``, past physical memory; turn an allocation or count numpy refuses into
    OutOfRange naming ``what``. With no reading of physical memory, only the second check runs."""
    if 0 < (memory := _physical_memory()) < n_bytes:
        raise OutOfRange(f"{what} needs {n_bytes} bytes, more than the {memory} bytes of physical memory")
    try:
        yield
    except (MemoryError, ValueError, OverflowError) as exc:  # ValueError: a shape numpy cannot represent at all
        raise OutOfRange(f"{what} does not fit in memory: {exc}") from exc
