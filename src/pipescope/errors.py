"""Exception types raised across the package.

These four classes are the whole error taxonomy: each carries the CLI's
exit code and stderr label, the message tells one refusal from another,
and the CLI prints ``pipescope: {label}: {message}`` and exits:

    ConfigError           2  configuration error  bad input or configuration
    NumericError          3  numeric error        a solve or guard failed at run time
    ActionTimeExceedsTau  4  point out of reach   a point needs action times past tau
    PipescopeError        2  error

``_allocating`` guards every array the input sizes: it refuses one past
physical memory before allocating it, and turns an allocation numpy
refuses into a ``ConfigError``.
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


class ActionTimeExceedsTau(PipescopeError):
    """A reconstruction point needs action times longer than tau."""
    exit_code, label = 4, "point out of reach"


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where the system does not say."""
    try:
        return max(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), 0)
    except (AttributeError, OSError, ValueError):
        return 0


@contextmanager
def _allocating(what: str, n_bytes: int = 0):
    """Refuse ``what``, arrays of ``n_bytes``, past physical memory; turn an allocation or count numpy refuses into
    a ConfigError naming ``what``. With no reading of physical memory, only the second check runs."""
    if 0 < (memory := _physical_memory()) < n_bytes:
        raise ConfigError(f"{what} needs {n_bytes} bytes, more than the {memory} bytes of physical memory")
    try:
        yield
    except (MemoryError, ValueError, OverflowError) as exc:  # ValueError: a shape numpy cannot represent at all
        raise ConfigError(f"{what} does not fit in memory: {exc}") from exc
