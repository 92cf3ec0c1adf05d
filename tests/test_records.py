"""The record types keep value semantics: equal by value, hashable where
their fields are, and immutable; ModeConfig checks every mode it makes,
replaced ones too; a table's replaced columns keep its ids."""

import numpy as np
import pytest

from estagg import cli
from estagg.aggregate import ModeConfig
from estagg.ingest import FilterConfig, Reject
from estagg.model import PeriodModel


NAMES = ["ModeConfig", "FilterConfig", "Reject", "PeriodModel"]


def records():
    """Two equal records of each type, made separately, and a third that differs."""
    beta = np.arange(6.0)
    model = PeriodModel((2011, 1), beta, 10, 1.5)
    return [
        (ModeConfig(), ModeConfig(label="full"), ModeConfig(label="no_bias", bias_key=None)),
        (FilterConfig(), FilterConfig(min_analysts=8), FilterConfig(min_analysts=3)),
        (Reject(3, "malformed: x"), Reject(3, "malformed: x"), Reject(4, "malformed: x")),
        (model, PeriodModel((2011, 1), beta, 10, 1.5), PeriodModel((2011, 1), beta, 9, 1.5)),
    ]


@pytest.mark.parametrize("a, same, other", records(), ids=NAMES)
def test_equal_by_value_and_immutable(a, same, other):
    assert a == same and a is not same
    assert a != other
    name = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(other, name))
    assert a == same


@pytest.mark.parametrize("a, same, other", records()[:3], ids=NAMES[:3])
def test_hashable_by_value(a, same, other):
    assert hash(a) == hash(same)
    assert len({a, same, other}) == 2


def test_period_model_with_array_is_unhashable():
    with pytest.raises(TypeError):
        hash(records()[3][0])


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"exponent": 0.0}, "exponent must be positive and finite, got 0.0"),
        ({"exponent": float("nan")}, "exponent must be positive and finite, got nan"),
        ({"min_lead_hours": 47}, "recency cutoff below 48 hours"),
        (
            {"bias_key": "sector"},
            "unknown bias_key 'sector'; known: ['identity_firm', 'identity', 'firm', 'global', 'half', None]",
        ),
        ({"method": "median"}, "unknown method 'median'; known: ['weighted', 'equal', 'closest']"),
    ],
)
def test_mode_replace_checks_as_the_constructor_does(changes, message):
    with pytest.raises(ValueError) as made:
        ModeConfig(**changes)
    assert str(made.value) == message
    for replace in (ModeConfig.replace, ModeConfig._replace):
        with pytest.raises(ValueError) as replaced:
            replace(ModeConfig(), **changes)
        assert str(replaced.value) == message


def test_mode_replace_keeps_the_other_fields():
    mode = ModeConfig(label="exponent_2", exponent=2.0, identity="broker")
    replaced = mode.replace(label="x", bias_key=None)
    assert type(replaced) is ModeConfig
    assert replaced == ModeConfig(label="x", bias_key=None, exponent=2.0, identity="broker")


def test_filter_replace_and_fields():
    cfg = FilterConfig(min_analysts=3)
    assert cfg._replace(min_lead_hours=720) == FilterConfig(min_analysts=3, min_lead_hours=720)
    assert list(cfg._asdict()) == [
        "min_analysts",
        "surprise_cap_cents",
        "min_lead_hours",
        "max_age_days",
    ]
    # the run's filter flags and config settings are these fields, in order, each cast as an int
    assert list(cli.FILTER_SETTINGS.items()) == [(field, int) for field in cfg._fields]


def test_table_replace_keeps_ids(small_panel_inputs):
    ests, acts, _ = small_panel_inputs
    for table, column in ((ests, "value_cents"), (acts, "announce_ts")):
        replaced = table.replace(**{column: getattr(table, column) * 3})
        assert type(replaced) is type(table) and len(replaced) == len(table)
        assert getattr(replaced, column).tolist() == (getattr(table, column) * 3).tolist()
        for name, value in vars(table).items():
            if name != column:
                assert getattr(replaced, name) is value
    with pytest.raises(TypeError):
        ests.replace(price=ests.value_cents)
