import json
import math
import random
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixsweep import budget, cli, schedule, space, trainplan
from mixsweep.errors import ValidationError
from mixsweep.seeds import mix64


def test_single_stage_budget_is_definition_of_ratio():
    spec = space.SetupSpec(budget.FactorTuple(2, 0, 0, 0))  # r=1/4
    setup = spec.derived()
    (stage,) = trainplan.stage_budgets(spec)
    assert stage.target_tokens == setup.total_tokens / 4
    assert stage.high_tokens == pytest.approx(setup.total_tokens * 3 / 4, rel=1e-15)
    assert stage.target_tokens + stage.high_tokens == stage.total_tokens


def test_two_stage_budget_example():
    spec = space.SetupSpec(budget.FactorTuple(2, 1, 1, -1), Fraction(0), Fraction(1, 2))  # r=1/4
    setup = spec.derived()
    first, second = trainplan.stage_budgets(spec)
    total = setup.total_tokens
    assert first.total_tokens == pytest.approx(total / 2, rel=1e-15)
    assert first.target_tokens == 0.0
    assert first.high_tokens == first.total_tokens
    assert second.total_tokens == pytest.approx(total / 2, rel=1e-15)
    assert second.target_tokens == pytest.approx(total / 4, rel=1e-15)
    assert second.high_tokens == pytest.approx(total / 4, rel=1e-15)
    assert first.target_tokens + second.target_tokens == total / 4


def test_target_sum_exact_across_grid(all_setups):
    ref = budget.reference_constants()
    two_stage = [s for s in all_setups if s.is_two_stage and s.factors.f_C == -4]
    assert two_stage
    for spec in two_stage:
        setup = spec.derived()
        budgets = trainplan.stage_budgets(spec)
        expected = math.ldexp(ref.target_tokens, setup.f_D + setup.factors.f_k)
        assert sum(b.target_tokens for b in budgets) == expected
        assert sum(b.total_tokens for b in budgets) == pytest.approx(
            setup.total_tokens, rel=1e-12
        )
        for b in budgets:
            assert b.target_tokens + b.high_tokens == b.total_tokens


def test_no_grid_stage_has_negative_high_tokens(all_setups):
    # with r2 = 1, stage 2's float total can round below its target tokens
    bad = [
        (spec.id, index)
        for spec in all_setups if spec.is_two_stage
        for index, b in enumerate(trainplan.stage_budgets(spec), 1)
        if not (b.high_tokens >= 0 and b.target_tokens <= b.total_tokens)
    ]
    assert not bad, f"{len(bad)} stages, first {bad[0]}"


def test_no_grid_target_only_stage_has_high_tokens(all_setups):
    # a ratio-1 stage's float total can also round above its target, by about an ulp
    bad = [
        (spec.id, index)
        for spec in all_setups
        for index, b in enumerate(trainplan.stage_budgets(spec), 1)
        if b.ratio == 1 and not (b.high_tokens == 0.0 and b.total_tokens == b.target_tokens)
    ]
    assert not bad, f"{len(bad)} stages, first {bad[0]}"


@st.composite
def _split_setups(draw):
    """Two-stage setups beyond the default grid, with 0 <= r1 < 2**-f_r < r2 <= 1.

    r1 is off the ratio grid (a denominator such as 3, 7, 1000 or 2**20), and
    half of the draws have r2 = 1, a target-only stage 2.
    """
    f_r = draw(st.integers(1, 20))
    factors = budget.FactorTuple(
        f_r, draw(st.integers(-30, 30)), draw(st.integers(0, 30)), draw(st.integers(-30, 0))
    )
    ratio = budget.ratio_for(f_r)
    den = draw(st.sampled_from([3, 7, 1000, 2**20]) | st.integers(1, 10**6))
    r1 = Fraction(draw(st.integers(0, math.ceil(den * ratio) - 1)), den)
    above = draw(st.fractions(0, 1, max_denominator=1000).filter(lambda b: b > 0))
    r2 = Fraction(1) if draw(st.booleans()) else ratio + (1 - ratio) * above
    return space.SetupSpec(factors, r1, r2)


@given(_split_setups())
def test_stage_budgets_sum_exactly_on_generated_setups(spec):
    factors = spec.factors
    budgets = trainplan.stage_budgets(spec)
    expected = math.ldexp(budget.reference_constants().target_tokens, factors.f_D + factors.f_k)
    assert sum(b.target_tokens for b in budgets) == expected
    assert [b.ratio for b in budgets] == [spec.first_stage_ratio, spec.second_stage_ratio]
    # stage 1's share is snapped to the quantum of a positive total and stays inside it
    target_1 = budgets[0].target_tokens
    assert expected > 0
    assert 0.0 <= target_1 <= expected
    assert target_1 % math.ulp(expected) == 0.0
    for b in budgets:
        assert b.target_tokens + b.high_tokens == b.total_tokens
        assert b.high_tokens >= 0
        assert b.target_tokens <= b.total_tokens


def test_insufficient_high_resource_corpus():
    spec = space.SetupSpec(budget.FactorTuple(2, 0, 0, 0))
    needed = spec.derived().total_tokens * 3 / 4
    trainplan.stage_budgets(spec, high_available=needed)  # exactly enough
    with pytest.raises(ValidationError, match="high-resource tokens, only .* declared available"):
        trainplan.stage_budgets(spec, high_available=needed * 0.999)


def test_epoch_seeds_single():
    assert schedule.epoch_seeds(1, 42) == [mix64(42, 1)]


def test_epoch_seeds_distinct_and_reproducible():
    seeds = schedule.epoch_seeds(8, 42)
    assert len(set(seeds)) == 8
    assert seeds == schedule.epoch_seeds(8, 42)
    assert schedule.epoch_seeds(8, 43) != seeds


def test_epoch_seeds_distinct_for_large_counts():
    assert len(set(schedule.epoch_seeds(512, 0))) == 512


def test_epoch_seeds_rejects_zero():
    with pytest.raises(ValidationError):
        schedule.epoch_seeds(0, 1)


def test_epoch_seeds_take_a_base_seed_in_64_bits_only():
    # mix64 masks its key, so -1 would alias 2**64 - 1
    assert schedule.epoch_seeds(2, 2**64 - 1) == [mix64(2**64 - 1, 1), mix64(2**64 - 1, 2)]
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError) as excinfo:
            schedule.epoch_seeds(2, seed)
        assert str(excinfo.value) == f"base_seed must be in [0, 2**64), got {seed}"


def _simulate_accumulator(ratio, n):
    """Independent oracle: the literal error-diffusion accumulator."""
    acc = Fraction(0)
    out = []
    for _ in range(n):
        acc += ratio
        if acc >= Fraction(1, 2):
            out.append("target")
            acc -= 1
        else:
            out.append("high")
    return out


@pytest.mark.parametrize(
    "ratio",
    [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
)
def test_interleaver_matches_accumulator_oracle(ratio):
    assert [schedule.source_at(ratio, i) for i in range(500)] == _simulate_accumulator(ratio, 500)


@pytest.mark.parametrize(
    "ratio",
    [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
)
def test_interleaver_prefix_discrepancy_bounded(ratio):
    worst = max(
        abs(schedule.targets_before(ratio, n) - float(ratio) * n) for n in range(1, 10001)
    )
    assert worst <= 1.0


def test_interleaver_special_patterns():
    half = Fraction(1, 2)
    assert [schedule.source_at(half, i) for i in range(6)] == ["target", "high"] * 3
    window = [schedule.source_at(Fraction(1, 3), i) for i in range(9)]
    assert window == ["high", "target", "high"] * 3
    assert all(schedule.source_at(Fraction(0), i) == "high" for i in range(10))
    assert all(schedule.source_at(Fraction(1), i) == "target" for i in range(10))


def test_build_schedule_deterministic():
    spec = space.SetupSpec(budget.FactorTuple(2, 1, 1, -1), Fraction(0), Fraction(1, 2))
    setup = spec.derived()
    plan = trainplan.build_training_plan(spec)
    one = schedule.build_schedule(plan, base_seed=7)
    assert one == schedule.build_schedule(plan, base_seed=7)
    assert one["setup_id"] == spec.id
    assert one["base_seed"] == 7
    assert one["epoch_seeds"] == schedule.epoch_seeds(setup.epochs, 7)
    stages = [(s["index"], s["total_tokens"]) for s in one["stages"]]
    assert stages == [(1, plan.stages[0].total_tokens), (2, plan.stages[1].total_tokens)]
    assert one["trailing_partial_epoch"]  # reference corpus is not batch-aligned


def test_schedule_rows_accounting():
    spec = space.SetupSpec(budget.FactorTuple(2, 1, 1, -1), Fraction(0), Fraction(1, 2))
    plan = trainplan.build_training_plan(spec)
    batch = plan.batch.global_batch_tokens
    rows = list(schedule.schedule_rows(plan))
    indices = [r[0] for r in rows]
    assert indices == list(range(len(rows)))
    for stage, stage_budget in enumerate(plan.stages, 1):
        stage_rows = [r for r in rows if r[1] == stage]
        assert sum(r[3] for r in stage_rows) == stage_budget.total_tokens
        assert all(r[3] <= batch for r in stage_rows)
    # stage 1 of this split is high-resource only
    assert all(r[2] == "high" for r in rows if r[1] == 1)


def _reference_rows(plan):
    """The plain per-row expansion: one ``source_at`` evaluation per batch."""
    index = 0
    batch = plan.batch.global_batch_tokens
    for stage, stage_budget in enumerate(plan.stages, 1):
        n_batches = math.ceil(stage_budget.total_tokens / batch)
        for i in range(n_batches):
            if i < n_batches - 1:
                tokens = float(batch)
            else:
                tokens = stage_budget.total_tokens - batch * (n_batches - 1)
            yield (index, stage, schedule.source_at(stage_budget.ratio, i), tokens)
            index += 1


_ratios = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(1, 32)]),
    st.integers(1, 64).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))),
)


def _plan(batch, totals_and_ratios):
    """A plan of one stage per (total tokens, ratio)."""
    stages = tuple(
        trainplan.StageTokenBudget(total, total * float(ratio), 0.0, ratio)
        for total, ratio in totals_and_ratios
    )
    return trainplan.TrainingPlan(
        setup_id="x",
        shape=trainplan.SHAPE_LADDER[0],
        eta_max=0.0,
        batch=trainplan.BatchConfig(1, 1, 1, 1, batch),
        stages=stages,
        steps=tuple(math.ceil(b.total_tokens / batch) for b in stages),
        epochs=1,
    )


@st.composite
def _plans(draw):
    """Plans of 1-3 stages, with whole, partial, sub-batch and empty stage totals."""
    batch = draw(st.sampled_from([1, 3, 4096, 98304]))
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        full = draw(st.integers(0, 200))
        partial = draw(st.sampled_from([0.0, 0.25, 0.999, 1e-9]) | st.floats(0, 1, exclude_max=True))
        stages.append((float(full * batch) + partial * batch, draw(_ratios)))
    return _plan(batch, stages)


@given(_plans())
def test_schedule_rows_match_per_row_expansion(plan):
    rows = list(schedule.schedule_rows(plan))
    # repr pins the cell types too (a float 4096.0 is not an int 4096)
    assert list(map(repr, rows)) == list(map(repr, _reference_rows(plan)))


_HEADER = ("batch_index", "stage", "source", "tokens")


def _lines(text):
    # a failing comparison of line lists names the first differing line at once, where
    # pytest would diff two multi-megabyte strings for minutes
    return text.splitlines(keepends=True)


@given(_plans())
def test_schedule_csv_matches_csv_writer(plan):
    assert schedule.schedule_csv(plan) == cli._csv_text(_HEADER, _reference_rows(plan))


@pytest.mark.parametrize(
    "batch, stages",
    [
        # a zero-token stage between two others has no rows
        (4096, [(3.5 * 4096, Fraction(1, 3)), (0.0, Fraction(1, 2)), (2 * 4096, Fraction(1))]),
        # batch size 1 with q = 64: every source of the period, and the period cycles
        (1, [(200.0, Fraction(7, 64)), (130.5, Fraction(63, 64))]),
        # partial last rows whose tokens print with the shortest round-trip repr
        (1, [(5e-324, Fraction(0)), (0.1, Fraction(1)), (3.1, Fraction(1, 3))]),
        (4, [(3.0000000000000004, Fraction(1, 2)), (4.1, Fraction(1, 3))]),
        # long stages: blocks of 100 rows between a head (below 100, or off a block
        # boundary) and a tail, both written row by row.
        # 8,192 full rows after a short stage, so the head starts off index 0
        (1, [(2.5, Fraction(1, 2)), (2 * 4096 + 1.0, Fraction(1, 4))]),
        # 8,193 full rows from index 0, then a partial last row
        (1, [(2 * 4096 + 1.5, Fraction(1, 4))]),
        # 4,095 full rows and a whole last row
        (1, [(4096.0, Fraction(1, 2))]),
        # q = 3 does not divide 100, so the blocks take its 3 phases in turn
        (4096, [(3 * 4096 * 4096 + 100.0, Fraction(1, 3))]),
        # q = 5000 is longer than a block: 50 phases, kept, over more than 2q batches
        (1, [(3.0, Fraction(1)), (2 * 5000 + 1234.75, Fraction(1, 5000))]),
        # q = 128: 32 phases, each taken by 2 or 3 of the stage's blocks, from index 3
        (1, [(3.0, Fraction(1)), (2 * 4096 + 2.5, Fraction(77, 128))]),
        # schedule_csv writes indices 100·m … 100·m + 99 (m >= 1) in blocks of 100 rows.
        # The index carries 99 -> 100, 999 -> 1,000, 9,999 -> 10,000 and 99,999 -> 100,000
        (1, [(100_001.5, Fraction(3, 7))]),
        # 10,000 is the first index of a tail, after a head from 950
        (1, [(950.0, Fraction(1, 2)), (9_100.5, Fraction(1, 4))]),
        # stages of under a block from index 0: 99 rows, and 58 rows before a stage at 58
        (1, [(99.0, Fraction(1, 2))]),
        (1, [(57.5, Fraction(1, 3)), (300.0, Fraction(1, 4))]),
        # 100, 101 and 201 rows from index 0: the first block is m = 1, never m = 0
        (1, [(100.0, Fraction(1, 4))]),
        (1, [(101.0, Fraction(1, 4))]),
        (1, [(201.0, Fraction(3, 8))]),
        # stages that start mid-block, with q = 3, 7 and 64
        (1, [(37.0, Fraction(1, 2)), (1234.5, Fraction(1, 3)), (777.0, Fraction(2, 7)),
             (2345.25, Fraction(5, 64))]),
        (4096, [(130.0 * 4096, Fraction(1, 7)), (905.5 * 4096, Fraction(33, 64))]),
        # full rows that end on a block boundary (150 … 499, last row 500), and a stage
        # whose last row is 499, so the next starts on one
        (1, [(150.0, Fraction(1, 8)), (351.0, Fraction(1, 4)), (49.0, Fraction(1))]),
        (1, [(500.0, Fraction(1, 8)), (250.0, Fraction(3, 8))]),
        # q = 100 has one phase; q = 101 has 101, more than the 100 templates a stage
        # keeps, so each of its blocks builds its own
        (1, [(7.0, Fraction(1)), (1050.5, Fraction(37, 100)), (1050.5, Fraction(37, 101))]),
    ],
)
def test_schedule_csv_matches_csv_writer_on_edge_cases(batch, stages):
    plan = _plan(batch, stages)
    text = _lines(schedule.schedule_csv(plan))
    assert text == _lines(cli._csv_text(_HEADER, _reference_rows(plan)))
    assert text == _lines(cli._csv_text(_HEADER, schedule.schedule_rows(plan)))


def test_schedule_csv_of_the_longest_grid_schedule(all_setups):
    plan = max(map(trainplan.build_training_plan, all_setups), key=lambda p: sum(p.steps))
    assert sum(plan.steps) == 130_009
    assert _lines(schedule.schedule_csv(plan)) == _lines(
        cli._csv_text(_HEADER, schedule.schedule_rows(plan))
    )


def test_schedule_csv_on_every_stratum_of_the_grid(all_setups):
    # one setup from each of 50 strata, ordered by D_total / C^(1/3) as perfbench orders
    # them, so the draws span short to long schedules and every stage period of the grid
    def length(spec):
        derived = spec.derived()
        return derived.total_tokens / derived.compute ** (1 / 3), spec.id

    ordered = sorted(all_setups, key=length)
    rng, n, k = random.Random(0), len(ordered), 50
    drawn = [ordered[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]
    plans = list(map(trainplan.build_training_plan, drawn))
    periods = {stage.ratio.denominator for plan in plans for stage in plan.stages}
    assert periods == {1, 2, 4, 8, 16, 32}
    for plan in plans:
        assert _lines(schedule.schedule_csv(plan)) == _lines(
            cli._csv_text(_HEADER, schedule.schedule_rows(plan))
        ), plan.setup_id


def test_no_grid_plan_has_more_epochs_than_batches(all_setups):
    # build_schedule refuses a plan of more epochs than batches; no grid setup is one
    plans = list(map(trainplan.build_training_plan, all_setups))
    assert max(plan.epochs for plan in plans) == 512
    assert min(sum(plan.steps) for plan in plans) == 2_709
    assert all(plan.epochs <= sum(plan.steps) for plan in plans)


def test_schedule_rows_skip_a_zero_token_stage():
    # r1 a hair below r = 1/4: stage 2's share rounds to a zero-token stage
    r1 = Fraction(1, 4) - Fraction(1, 10**400)
    spec = space.SetupSpec(budget.FactorTuple(2, 4, 0, -4), r1, Fraction(1, 2))
    assert space.from_wire(json.loads(space.wire_line(spec))) == spec
    plan = trainplan.build_training_plan(spec)
    assert plan.steps[1] == 0
    assert plan.stages[1].total_tokens == 0.0
    rows = list(schedule.schedule_rows(plan))
    assert rows == list(_reference_rows(plan))
    assert rows and {r[1] for r in rows} == {1}
    assert schedule.schedule_csv(plan) == cli._csv_text(_HEADER, rows)


@given(st.data())
def test_plan_and_schedule_agree_per_stage(all_setups, data):
    spec = data.draw(st.sampled_from(all_setups))
    plan = trainplan.build_training_plan(spec)
    plan_stages = trainplan.plan_to_wire(plan)["stages"]
    schedule_stages = schedule.build_schedule(plan)["stages"]
    tokens = {
        stage: list(map(itemgetter(3), rows))
        for stage, rows in groupby(schedule.schedule_rows(plan), key=itemgetter(1))
    }
    for planned, scheduled in zip(plan_stages, schedule_stages, strict=True):
        stage_tokens = tokens.get(planned["index"], [])  # a zero-token stage has no rows
        assert planned["steps"] == len(stage_tokens)
        assert sum(stage_tokens) == planned["total_tokens"]
        for key in ("index", "total_tokens", "target_tokens", "high_tokens"):
            assert planned[key] == scheduled[key]
