"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes (see ``tanglewalk.cli``):
``ConfigError`` 2, ``DomainError`` 3 and ``SizeCapError`` 4.  New error
conditions should reuse one of the classes below rather than raising bare
``ValueError``.
"""


class TanglewalkError(Exception):
    """Base class for all package errors."""


class ConfigError(TanglewalkError):
    """Invalid configuration, flags, or input files."""


class DomainError(TanglewalkError):
    """An argument violates an operation's precondition."""


class GenerationError(DomainError):
    """Instance generation failed for the given parameters."""


class SizeCapError(TanglewalkError):
    """A size cap (a dense path's memory estimate, an enumeration budget) was exceeded."""
