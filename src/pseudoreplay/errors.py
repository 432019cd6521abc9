"""Exception taxonomy shared across the package, and its one integer check.

ConfigurationError and DataFormatError map to CLI exit status 2 (bad inputs);
everything else that escapes a run maps to exit status 1 (runtime failure).
"""

import numbers


class PseudoreplayError(Exception):
    pass


class ConfigurationError(PseudoreplayError, ValueError):
    """Invalid parameter or config value."""


class DataFormatError(PseudoreplayError, ValueError):
    """Malformed or inconsistent input data."""


class TrainingError(PseudoreplayError, RuntimeError):
    """Training diverged or could not proceed."""


def require_integer(what: str, value) -> int:
    """value as an int; anything but a non-bool integral raises
    ConfigurationError("<what> must be an integer, got <value>")."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)
