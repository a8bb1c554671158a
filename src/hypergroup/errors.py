"""Exception types shared across the package, and the integer check
every config runs.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, numeric failures exit 3.
"""

import numbers


class HyperGroupError(Exception):
    """Base class for all package errors."""


class DataError(HyperGroupError):
    """Problem with dataset files or their content."""


class ParseError(DataError):
    """A data file line could not be parsed."""


class IntegrityError(DataError):
    """Dataset content violates a referential or structural constraint."""


class ConfigError(HyperGroupError):
    """Invalid configuration value or combination."""


class DimensionError(HyperGroupError):
    """Tensor shapes do not conform for the requested operation."""


class ContractViolation(HyperGroupError):
    """A documented precondition was violated by the caller."""


class SamplingError(HyperGroupError):
    """Negative sampling is impossible for the given positive set."""


class NumericError(HyperGroupError):
    """A non-finite value was produced where finite values are required."""


class CheckpointError(HyperGroupError):
    """Checkpoint file is malformed or inconsistent with the model config."""


def check_integers(owner, *names: str, optional: bool = False) -> None:
    """Raise :class:`ConfigError` unless each named field of ``owner`` holds
    an integer or a sequence of integers (Python or numpy ones; a bool or a
    float is none, even 2.0).  With ``optional``, None passes too."""
    for name in names:
        value = getattr(owner, name)
        if value is None and optional:
            continue
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ConfigError(f"{name} takes integers, got {v!r}")
