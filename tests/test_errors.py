"""Field bounds: :func:`errors.bounded` declares them, :func:`errors.check_fields`
checks them, and every numeric config field declares its own."""

import dataclasses
import typing

import pytest

from hypergroup.data import SplitSpec, SynthConfig
from hypergroup.errors import ConfigError, bounded, check_fields
from hypergroup.model import ModelConfig
from hypergroup.training import TrainConfig


def unbounded_numeric_fields(cls) -> list[str]:
    """The ``int``, ``float`` and ``tuple[int, ...]`` fields of ``cls``,
    optional ones included, that declare no bounds."""
    hints = typing.get_type_hints(cls)
    names = []
    for f in dataclasses.fields(cls):
        kinds = set(typing.get_args(hints[f.name])) - {type(None)} or {hints[f.name]}
        numeric = any(k in (int, float) or typing.get_origin(k) is tuple for k in kinds)
        if numeric and not f.metadata.get("bounds"):
            names.append(f.name)
    return names


@dataclasses.dataclass(frozen=True)
class Knobs:
    size: int = bounded(2, ge=1)
    ratio: float = bounded(0.5, gt=0, lt=1)
    widths: tuple[int, ...] | None = bounded(None, ge=1)
    cap: int | None = bounded(None, le=3)
    name: str = "x"


@pytest.mark.parametrize("cls", [SplitSpec, SynthConfig, ModelConfig, TrainConfig], ids=lambda c: c.__name__)
def test_every_numeric_config_field_declares_bounds(cls):
    assert unbounded_numeric_fields(cls) == []


def test_the_guard_names_an_unbounded_field():
    @dataclasses.dataclass(frozen=True)
    class Loose(Knobs):
        patience: int | None = None

    assert unbounded_numeric_fields(Knobs) == []
    assert unbounded_numeric_fields(Loose) == ["patience"]


def test_bounded_keeps_the_default_on_the_class():
    assert Knobs.size == 2 and Knobs.widths is None and TrainConfig.batch_size == 256


@pytest.mark.parametrize("changes", [
    {}, {"size": 1}, {"ratio": 0.999}, {"widths": ()}, {"widths": (1, 5)}, {"cap": 3}, {"cap": -7},
])
def test_values_within_bounds_pass(changes):
    check_fields(Knobs(**changes))


@pytest.mark.parametrize("changes,message", [
    ({"size": 0}, "size must be >= 1, got 0"),
    ({"ratio": 0.0}, "ratio must be > 0 and < 1, got 0.0"),
    ({"ratio": 1.0}, "ratio must be > 0 and < 1, got 1.0"),
    ({"widths": (4, 0)}, "widths must be >= 1, got (4, 0)"),
    ({"cap": 4}, "cap must be <= 3, got 4"),
])
def test_a_value_out_of_bounds_is_one_config_error(changes, message):
    with pytest.raises(ConfigError) as info:
        check_fields(Knobs(**changes))
    assert str(info.value) == message


def test_the_type_is_checked_before_the_bounds():
    with pytest.raises(ConfigError, match="size takes .*, got 0.5"):
        check_fields(Knobs(size=0.5))
