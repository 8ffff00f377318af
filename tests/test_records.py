"""The record types are named tuples: they pickle, copy and ``_replace`` like the values they hold."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from mixsweep import analysis, budget, space, surrogate, trainplan
from mixsweep.budget import FactorTuple
from mixsweep.errors import ValidationError
from mixsweep.space import SetupSpec

_TWO_STAGE = SetupSpec(FactorTuple(2, 1, 3, -2), Fraction(1, 8), Fraction(1, 2))


def _records() -> dict:
    """One value of each record type (two setups), keyed by type name and position."""
    single = SetupSpec(FactorTuple(0, 0, 0, 0))
    plan = trainplan.build_training_plan(_TWO_STAGE)
    loss = analysis.LossRecord(single.id, "en-xx", 2.5)
    measured = [loss, analysis.LossRecord(single.id, "en-xx", 2.0),
                analysis.LossRecord("x", "en-xx", 2.0)]
    results = analysis.ingest(measured, [single, _TWO_STAGE])
    values = [
        budget.reference_constants(), _TWO_STAGE.factors, _TWO_STAGE.derived(),
        space.default_ranges()[0], single, _TWO_STAGE, loss, results.summary, results,
        surrogate.SurrogateParams(noise_sigma=0.02, seed=9), plan.shape, plan.batch,
        plan.stages[0], plan,
    ]
    return {f"{type(value).__name__}-{i}": value for i, value in enumerate(values)}


_RECORDS = _records()


@pytest.mark.parametrize("name", list(_RECORDS))
@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_records_round_trip_through_pickle_and_copy(name, clone):
    value = _RECORDS[name]
    cloned = clone(value)
    assert type(cloned) is type(value)
    assert cloned == value
    assert repr(cloned) == repr(value)  # nested records keep their types too


def test_setup_replace_rechecks_and_derives_a_fresh_id():
    with pytest.raises(ValidationError, match="need r1 < r < r2 strictly"):
        _TWO_STAGE._replace(first_stage_ratio=Fraction(1, 2))
    f = _TWO_STAGE.factors
    moved = _TWO_STAGE._replace(factors=f._replace(f_k=f.f_k + 1))
    assert moved == SetupSpec(FactorTuple(2, 1, 4, -2), Fraction(1, 8), Fraction(1, 2))
    assert moved.id == "fC-2_fD-7_fr2_fM1_fk4_r11/8_r21/2" != _TWO_STAGE.id
    assert _TWO_STAGE._replace(id="fC0_fD0_fr0_fM0_fk0").id == _TWO_STAGE.id


@pytest.mark.parametrize("value, changes, message", [
    (FactorTuple(0, 0, 0, 0), {"f_k": -1}, "f_k must be >= 0"),
    (FactorTuple(0, 0, 0, 0), {"f_r": 1.0}, "f_r must be an integer"),
    (analysis.LossRecord("a", "en-xx", 2.5), {"val_loss": math.nan}, "val_loss must be positive"),
    (surrogate.SurrogateParams(), {"seed": 1.5}, "seed must be an integer"),
    (trainplan.SHAPE_LADDER[0], {"n_heads": 5}, "not divisible by n_heads 5"),
])
def test_replace_rechecks_every_validating_type(value, changes, message):
    with pytest.raises(ValidationError, match=message):
        value._replace(**changes)
