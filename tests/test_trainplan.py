import math
from fractions import Fraction

import pytest

from mixsweep import budget, trainplan
from mixsweep.errors import ValidationError

#: (f_M, n_layers, n_heads, d_model, printed 3-significant-figure scale)
LADDER_ROWS = [
    (5, 2, 4, 128, "1.49e+07"),
    (4, 4, 4, 128, "2.99e+07"),
    (3, 4, 7, 224, "5.85e+07"),
    (2, 4, 12, 384, "1.18e+08"),
    (1, 8, 12, 384, "2.36e+08"),
    (0, 8, 39, 624, "4.70e+08"),
    (-1, 16, 39, 624, "9.39e+08"),
]


def test_model_scale_exact_values():
    assert trainplan.model_scale(8, 624, 4096) == 469_647_360
    assert trainplan.model_scale(2, 128, 4096) == 14_942_208
    assert trainplan.model_scale(3, 0, 4096) == 0


@pytest.mark.parametrize("f_M,n_layers,n_heads,d_model,printed", LADDER_ROWS)
def test_ladder_recomputed_scale_matches_printed(f_M, n_layers, n_heads, d_model, printed):
    shape = trainplan.shape_for_factor(f_M)
    assert (shape.n_layers, shape.n_heads, shape.d_model) == (n_layers, n_heads, d_model)
    recomputed = trainplan.model_scale(n_layers, d_model, 4096)
    assert shape.flops_per_token == recomputed
    assert f"{recomputed:.2e}" == printed


def test_ladder_shapes_satisfy_aspect_bound():
    for shape in trainplan.SHAPE_LADDER.values():
        assert 30 <= shape.d_model / shape.n_layers <= 150
        assert shape.d_model % shape.n_heads == 0


def test_ladder_halves_scale_per_step():
    scales = [trainplan.shape_for_factor(f).flops_per_token for f in range(-1, 6)]
    for big, small in zip(scales, scales[1:]):
        assert big / small == pytest.approx(2.0, rel=0.05)


def test_unsupported_scale():
    with pytest.raises(ValidationError, match=r"f_M=-2 outside the shape ladder \[-1, 5\]"):
        trainplan.shape_for_factor(-2)
    with pytest.raises(ValidationError, match=r"f_M=6 outside the shape ladder \[-1, 5\]"):
        trainplan.shape_for_factor(6)


def test_shape_validation():
    with pytest.raises(ValidationError):
        trainplan.ModelShape(n_layers=4, n_heads=5, d_model=128)
    with pytest.raises(ValidationError):
        trainplan.ModelShape(n_layers=0, n_heads=4, d_model=128)


def test_learning_rate_values():
    assert trainplan.learning_rate(1e18) == 0.3118 * 1e18**-0.125
    assert trainplan.learning_rate(1e18) == pytest.approx(1.7534e-3, rel=1e-4)
    assert trainplan.learning_rate(6.25e16) == pytest.approx(2.480e-3, rel=1e-3)


def test_learning_rate_monotone_decreasing():
    budgets = [2.0**e * 1e15 for e in range(0, 12)]
    rates = [trainplan.learning_rate(c) for c in budgets]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    with pytest.raises(ValidationError):
        trainplan.learning_rate(0.0)


def test_round_half_away():
    assert trainplan.round_half_away(1.75) == 2
    assert trainplan.round_half_away(2.5) == 3
    assert trainplan.round_half_away(0.4) == 0
    assert trainplan.round_half_away(-2.5) == -3


def test_batch_config_reference_trace():
    shape = trainplan.shape_for_factor(0)
    assert shape.complexity == 3_115_008
    config = trainplan.batch_config(1e18, shape)
    assert (config.local_batch, config.accumulation) == (4, 2)
    assert config.global_batch_seqs == 64
    assert config.global_batch_tokens == 262_144


def test_batch_config_small_budget_trace():
    config = trainplan.batch_config(6.25e16, trainplan.shape_for_factor(0))
    assert (config.local_batch, config.accumulation) == (3, 1)
    assert config.global_batch_seqs == 24


def test_batch_config_unsupported_complexity():
    shape = trainplan.ModelShape(n_layers=8, n_heads=8, d_model=5000)
    assert shape.complexity == 2e8
    with pytest.raises(ValidationError, match="batch rule undefined for this shape"):
        trainplan.batch_config(1e18, shape)


def test_batch_config_minimum_batch_error():
    with pytest.raises(ValidationError, match="optimal per-device batch rounds to 0 at compute"):
        trainplan.batch_config(1e12, trainplan.shape_for_factor(0))


@pytest.mark.parametrize("devices", [0, -2, 2.0, "8", True])
def test_batch_config_rejects_invalid_devices(devices):
    with pytest.raises(ValidationError, match="devices must be a positive integer"):
        trainplan.batch_config(1e18, trainplan.shape_for_factor(0), devices=devices)


def test_batch_config_monotone_in_compute():
    shape = trainplan.shape_for_factor(0)
    budgets = [2.0**e * 1e16 for e in range(0, 10)]
    tokens = [trainplan.batch_config(c, shape).global_batch_tokens for c in budgets]
    assert all(a <= b for a, b in zip(tokens, tokens[1:]))


def test_batch_config_respects_device_override():
    shape = trainplan.shape_for_factor(0)
    four = trainplan.batch_config(1e18, shape, devices=4)
    assert four.devices == 4
    assert four.global_batch_seqs == four.local_batch * 4 * four.accumulation


def test_lr_schedule_milestones_fixed():
    assert trainplan.MILESTONES == ((0.8, 0.316), (0.9, 0.1))
    assert trainplan.WARMUP_STEPS == 500


def test_single_stage_plan():
    setup = budget.derive_single_stage(budget.FactorTuple(0, 0, 0, 0))
    plan = trainplan.build_training_plan(setup, setup_id="fC0_fD0_fr0_fM0_fk0")
    assert len(plan.stages) == 1
    assert plan.steps == (math.ceil(setup.total_tokens / plan.batch.global_batch_tokens),)
    assert plan.stages[0].ratio == 1
    assert not plan.warnings
    doc = trainplan.plan_to_wire(plan)
    assert doc["stages"][0]["ratio"] == 1.0
    assert doc["stages"][0]["steps"] == plan.steps[0]
    assert doc["stages"][0]["warmup_exceeds_stage"] is False
    assert doc["optimizer"]["adam_betas"] == [0.9, 0.95]
    assert doc["optimizer"]["adam_epsilon"] == 1e-8
    assert doc["optimizer"]["weight_decay"] == 0.1
    assert doc["optimizer"]["gradient_clip_norm"] == 1.0
    assert doc["optimizer"]["init_std"] == 0.006


def test_two_stage_plan_shares_peak_lr():
    setup = budget.derive_single_stage(budget.FactorTuple(2, 1, 1, -1))
    split = budget.stage_split(Fraction(0), Fraction(1, 2), Fraction(1, 4))
    plan = trainplan.build_training_plan(setup, split)
    assert len(plan.stages) == 2
    for stage in trainplan.plan_to_wire(plan)["stages"]:
        assert stage["lr_schedule"]["eta_max"] == plan.eta_max
        assert stage["lr_schedule"]["warmup_steps"] == 500
        assert stage["lr_schedule"]["milestones"] == [[0.8, 0.316], [0.9, 0.1]]
        assert stage["lr_schedule"]["per_stage"] is True
    total = sum(s.total_tokens for s in plan.stages)
    assert total == pytest.approx(setup.total_tokens, rel=1e-12)


def test_short_stage_flagged():
    setup = budget.derive_single_stage(budget.FactorTuple(3, 1, 0, -4))
    split = budget.stage_split(Fraction(1, 16), Fraction(1), Fraction(1, 8))
    assert split.second_length == Fraction(1, 15)
    plan = trainplan.build_training_plan(setup, split)
    assert plan.steps[1] < 500
    assert trainplan.plan_to_wire(plan)["stages"][1]["warmup_exceeds_stage"] is True
    assert any("warmup-exceeds-stage" in w for w in plan.warnings)


def test_plan_wire_schema():
    setup = budget.derive_single_stage(budget.FactorTuple(0, 0, 0, 0))
    doc = trainplan.plan_to_wire(trainplan.build_training_plan(setup, setup_id="x"))
    assert doc["schema_version"] == 1
    assert set(doc) == {
        "schema_version", "setup_id", "model_shape", "optimizer", "batch", "stages", "warnings",
    }
    assert doc["stages"][0]["lr_schedule"]["milestones"] == [[0.8, 0.316], [0.9, 0.1]]
