"""Exception taxonomy shared across the package, its value checks, and the
one reader that builds config dataclasses from JSON objects.

ConfigurationError and DataFormatError map to CLI exit status 2 (bad inputs);
everything else that escapes a run maps to exit status 1 (runtime failure).
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
import sys
import typing


class PseudoreplayError(Exception):
    pass


class ConfigurationError(PseudoreplayError, ValueError):
    """Invalid parameter or config value; `field` names the field at fault, if any."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DataFormatError(PseudoreplayError, ValueError):
    """Malformed or inconsistent input data."""


class TrainingError(PseudoreplayError, RuntimeError):
    """Training diverged or could not proceed."""


def require_integer(what: str, value, least=None) -> int:
    """value as an int; a bool, a non-integral or one below `least` raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}", what)
    if least is not None and value < least:
        raise ConfigurationError(f"{what} must be >= {least}, got {value}", what)
    return operator.index(value)


def require_number(what: str, value, least=None, below=None) -> float:
    """value as a float; a bool, a non-real, a non-finite or one outside
    [least, below) raises. Every error names `what` as its field."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # false for nan too
        raise ConfigurationError(f"{what} must be a finite number, got {value!r}", what)
    if (least is not None and value < least) or (below is not None and value >= below):
        bounds = f"in [{least}, {below})" if below is not None else f">= {least}"
        raise ConfigurationError(f"{what} must be {bounds}, got {value}", what)
    return value * 1.0


def require_string(what: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{what} must be a string, got {value!r}", what)
    return value


def require_list(what: str, value, each=None) -> tuple:
    """value as a tuple, every entry passed through each(what, entry) when
    given; anything but a list or tuple raises."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{what} must be a list, got {value!r}", what)
    return tuple(value) if each is None else tuple(each(what, entry) for entry in value)


def _at(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"field '{path}': {message}" if path else f"config: {message}")


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def read_config(cls, doc, path: str = "", **fixed):
    """Build the config dataclass `cls` from the JSON object `doc`.

    Every key of `doc` must be an init field of `cls` that `fixed` does not
    set; every field without a default must be given. A field holding a
    config dataclass, alone, optional or as a list, is read recursively; a
    field typed dict takes any object.
    The checks themselves live in each class's __post_init__; a
    ConfigurationError they raise comes out as "field '<path>.<field>':
    <reason>", where `path` names where `doc` sits.
    """
    if not isinstance(doc, dict):
        raise _at(path, f"must be an object, got {doc!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    known = [n for n in fields if n not in fixed]
    hints = typing.get_type_hints(cls)
    kwargs = dict(fixed)
    for key, value in doc.items():
        where = _join(path, key)
        if key not in known:
            raise _at(where, f"unknown key; expected one of {known}")
        hint = hints[key]
        args = typing.get_args(hint)
        inner = next((t for t in (hint, *args) if dataclasses.is_dataclass(t)), None)
        if hint is dict and not isinstance(value, dict):
            raise _at(where, f"must be an object, got {value!r}")
        if inner is None or (value is None and type(None) in args):
            kwargs[key] = value
        elif typing.get_origin(hint) in (list, tuple):
            if not isinstance(value, (list, tuple)):
                raise _at(where, f"must be a list, got {value!r}")
            kwargs[key] = [read_config(inner, v, f"{where}[{i}]") for i, v in enumerate(value)]
        else:
            kwargs[key] = read_config(inner, value, where)
    for name, f in fields.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and name not in kwargs:
            raise _at(_join(path, name), "missing required key")
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise _at(_join(path, exc.field) if exc.field else path, str(exc)) from None
