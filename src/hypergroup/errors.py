"""Exception types shared across the package, and the field check and
loader every config record runs through.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, numeric failures exit 3.
"""

import dataclasses
import math
import numbers
import operator
import types
import typing


class HyperGroupError(Exception):
    """Base class for all package errors."""


class DataError(HyperGroupError):
    """Problem with dataset files or their content."""


class ParseError(DataError):
    """A data file line could not be parsed."""


class IntegrityError(DataError):
    """Dataset content violates a referential or structural constraint."""


class SamplingError(DataError):
    """Negative sampling is impossible for the given positive set."""


class ConfigError(HyperGroupError):
    """Invalid configuration value or combination."""


class DimensionError(HyperGroupError):
    """Tensor shapes do not conform for the requested operation."""


class ContractViolation(HyperGroupError):
    """A documented precondition was violated by the caller."""


class NumericError(HyperGroupError):
    """A non-finite value was produced where finite values are required."""


class CheckpointError(HyperGroupError):
    """Checkpoint file is malformed or inconsistent with the model config."""


def _accepts(kind, value) -> bool:
    """Whether ``value`` belongs to the annotated field type ``kind``."""
    if typing.get_origin(kind) is types.UnionType:
        return any(_accepts(k, value) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, tuple) and all(_accepts(item, v) for v in value)
    if kind is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:  # an integer beyond float range
            return False
    if kind is type(None):
        return value is None
    return isinstance(value, kind)


_RELATIONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def bounded(default=dataclasses.MISSING, *, ge=None, gt=None, le=None, lt=None):
    """A dataclass field that :func:`check_fields` holds to the given bounds."""
    bounds = tuple((rel, b) for rel, b in zip(_RELATIONS, (ge, gt, le, lt)) if b is not None)
    return dataclasses.field(default=default, metadata={"bounds": bounds})


def check_fields(cfg) -> None:
    """Raise :class:`ConfigError` unless every field of the config dataclass
    ``cfg`` holds a value of its annotated type within its declared bounds.

    ``int`` takes integers (a bool or a float is none, even 2.0); ``float``
    takes finite numbers but no bool; ``str`` and ``bool`` take only their
    own type; ``X | None`` also takes None; ``tuple[int, ...]`` takes a
    tuple of integers.  A value, or each tuple entry, then meets its bounds.
    """
    hints = typing.get_type_hints(type(cfg))
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not _accepts(hints[f.name], value):
            raise ConfigError(f"{f.name} takes {f.type}, got {value!r}")
        bounds = f.metadata.get("bounds", ())
        entries = value if isinstance(value, tuple) else () if value is None else (value,)
        if not all(_RELATIONS[rel](v, b) for v in entries for rel, b in bounds):
            wanted = " and ".join(f"{rel} {b}" for rel, b in bounds)
            raise ConfigError(f"{f.name} must be {wanted}, got {value!r}")


def load_config(cls, where: str, *layers, complete: bool = False):
    """The validated ``cls`` built from JSON objects, later layers winning.

    A JSON list becomes a tuple (the form of ``tuple[int, ...]`` fields).
    With ``complete``, as for a block a checkpoint holds, every field must
    be given.  A layer that is no JSON object and an unknown or missing
    key are :class:`ConfigError`s naming ``where``; a bad value is one
    naming its field (see :func:`check_fields`).
    """
    blob = {}
    for layer in layers:
        if not isinstance(layer, dict):
            raise ConfigError(f"{where} takes a JSON object, got {layer!r}")
        blob.update(layer)
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in blob]
    if complete and missing:
        raise ConfigError(f"{where} lacks {', '.join(missing)}")
    try:
        cfg = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in blob.items()})
    except TypeError as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc
    cfg.validate()
    return cfg
