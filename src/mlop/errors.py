"""Exception types shared across the package, and the config-input checks
that map a malformed settings mapping or seed to ConfigError."""

import dataclasses
import numbers
import types
import typing


class MlopError(Exception):
    """Base class for all library errors."""


class ConfigError(MlopError):
    """Invalid configuration value or combination."""


class CloudFormatError(MlopError):
    """Malformed point-cloud file; message carries row/column location."""


class UnreachableSupportError(MlopError):
    """No admissible radius multiplier covers every reconstruction point."""


class CoincidentPointsError(MlopError):
    """Two reconstruction points collapsed below the repulsion guard distance."""


class NumericalAbortError(MlopError):
    """Solver produced a non-finite quantity; carries the iteration index."""

    def __init__(self, iteration: int, detail: str):
        self.iteration = iteration
        super().__init__(f"numerical abort at iteration {iteration}: {detail}")


def check_seed(seed: int) -> None:
    """Raise ConfigError unless seed fits the 64 unsigned bits a root Rng takes."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


def _fits(hint, value) -> bool:
    """Whether value can stand for a field annotated with hint (JSON-level
    types: any real number for float, integers only for int)."""
    if isinstance(hint, types.UnionType):
        return any(_fits(a, value) for a in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if dataclasses.is_dataclass(hint):  # a nested settings mapping
        return isinstance(value, dict)
    if isinstance(value, bool):  # JSON true/false is no number
        return False
    if hint is float:
        return isinstance(value, numbers.Real)
    if hint is int:
        return isinstance(value, numbers.Integral)
    return isinstance(value, hint)


def check_fields(cls, d, what: str) -> None:
    """Raise ConfigError unless d maps field names of the dataclass cls to
    values of the annotated types, with every field that has no default.

    The message names the offending key, so a saved config that still
    carries a removed or misspelt setting exits as a configuration error.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what}s must be a mapping, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in d:
        if key not in fields:
            raise ConfigError(f"unknown {what} {key!r}")
    hints = typing.get_type_hints(cls)
    for name, f in fields.items():
        if name not in d:
            if f.default is dataclasses.MISSING:
                raise ConfigError(f"{what} {name!r} is missing")
        elif not _fits(hints[name], d[name]):
            raise ConfigError(f"{what} {name!r} must be {f.type}, got {d[name]!r}")
