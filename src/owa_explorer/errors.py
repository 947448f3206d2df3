"""Exception hierarchy: one base per CLI exit code.

ConfigError (exit 2), DataError (exit 3) and NumericalError (exit 4) each
derive from OwaExplorerError, so callers can catch broadly; the message
names what failed. UnknownClass is the one subclass that library code tells
apart: prep blames the land-cover grid for it.
"""


class OwaExplorerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OwaExplorerError):
    """Invalid configuration file, key or CLI argument."""


class DataError(OwaExplorerError):
    """Invalid or inconsistent input data."""


class NumericalError(OwaExplorerError):
    """A numerical procedure failed to produce a valid result."""


class UnknownClass(DataError):
    """Land-cover class code absent from the capacity matrix."""
