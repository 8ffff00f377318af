import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixsweep import analysis, cli, fitting, space, surrogate
from mixsweep.budget import reference_constants
from mixsweep.errors import (
    FitError,
    UnderdeterminedError,
    UnidentifiableError,
    ValidationError,
)

# ---------------------------------------------------------------------------
# quadratic epoch fit
# ---------------------------------------------------------------------------


def test_quadratic_exact_on_planted_curve():
    points = [(f_k, (f_k - 2) ** 2 + 1) for f_k in range(6)]
    fit = fitting.fit_epoch_quadratic(points)
    assert fit["convex"]
    assert abs(fit["f_k_star"] - 2.0) <= 1e-9
    assert abs(fit["k_star"] - 4.0) <= 1e-8
    assert fit["rss"] <= 1e-18
    assert not fit["extrapolated"]


def test_quadratic_concave_falls_back_to_grid_argmin():
    points = [(f_k, -((f_k - 2) ** 2) + 5) for f_k in range(6)]
    fit = fitting.fit_epoch_quadratic(points)
    assert not fit["convex"]
    assert fit["f_k_star"] == 5.0  # smallest loss sits at the grid edge


def test_quadratic_underdetermined():
    with pytest.raises(UnderdeterminedError):
        fitting.fit_epoch_quadratic([(0, 1.0), (0, 1.1), (1, 1.2)])


def test_epoch_cells_skip_underdetermined_cells():
    curve = [(f_k, (f_k - 2) ** 2 + 1.0) for f_k in range(4)]
    doc = fitting.fit_epoch_cells({(0, -1): curve[:2], (0, 0): curve}, "mono-1stage")
    assert doc["parameters"]["fits"] == [{"f_C": 0, "f_D": 0} | fitting.fit_epoch_quadratic(curve)]
    assert doc["diagnostics"]["warnings"] == ["cell (f_C=0, f_D=-1) skipped: 2 epoch value(s) < 3"]
    with pytest.raises(UnderdeterminedError, match="no budget cell"):
        fitting.fit_epoch_cells({(0, -1): curve[:2]}, "mono-1stage")


def test_near_flat_convex_cell_is_skipped_not_a_traceback():
    # the vertex sits at f_k = 5e5, so 2**f_k overflows a float
    flat = [(f_k, 3.0 - 1e-7 * f_k + 1e-13 * f_k**2) for f_k in range(10)]
    with pytest.raises(UnidentifiableError, match="leaves the float range"):
        fitting.fit_epoch_quadratic(flat)
    curve = [(f_k, (f_k - 2) ** 2 + 1.0) for f_k in range(4)]
    doc = fitting.fit_epoch_cells({(0, -1): flat, (0, 0): curve}, "mono-1stage")
    assert doc["parameters"]["fits"] == [{"f_C": 0, "f_D": 0} | fitting.fit_epoch_quadratic(curve)]
    assert doc["diagnostics"]["warnings"] == [
        "cell (f_C=0, f_D=-1) skipped: epoch optimum out of range"
    ]
    with pytest.raises(UnderdeterminedError, match="no budget cell"):
        fitting.fit_epoch_cells({(0, -1): flat}, "mono-1stage")


def test_cell_whose_losses_overflow_the_fit_is_skipped():
    # losses near 3e160 that no quadratic fits: the squared residuals leave the float range
    big = [(f_k, 3e160 * (1.0 + 0.01 * (-1) ** f_k)) for f_k in range(5)]
    with pytest.raises(UnidentifiableError, match="leave the float range"):
        fitting.fit_epoch_quadratic(big)
    curve = [(f_k, (f_k - 2) ** 2 + 1.0) for f_k in range(4)]
    doc = fitting.fit_epoch_cells({(0, -1): big, (0, 0): curve}, "mono-1stage")
    assert doc["parameters"]["fits"] == [{"f_C": 0, "f_D": 0} | fitting.fit_epoch_quadratic(curve)]
    assert doc["diagnostics"]["warnings"] == [
        "cell (f_C=0, f_D=-1) skipped: losses overflow the fit"
    ]


def test_epoch_cells_without_a_fit_name_each_shortfall():
    # each shortfall is counted and its first cell named, in the order the cells come
    flat = [(f_k, 3.0 - 1e-7 * f_k + 1e-13 * f_k**2) for f_k in range(10)]
    big = [(f_k, 3e160 * (1.0 + 0.01 * (-1) ** f_k)) for f_k in range(5)]
    curve = [(f_k, (f_k - 2) ** 2 + 1.0) for f_k in range(4)]
    cells = {(0, -3): big, (0, -2): flat, (0, -1): curve[:2], (1, -1): curve[1:2], (1, -2): flat}
    with pytest.raises(UnderdeterminedError) as err:
        fitting.fit_epoch_cells(cells, "mono-1stage")
    assert str(err.value) == (
        "no budget cell has a usable epoch fit: 5 (f_C, f_D) cell(s) had data, "
        "1 had losses that overflow the fit, first (f_C=0, f_D=-3), "
        "2 had an epoch optimum out of range, first (f_C=0, f_D=-2), "
        "2 had fewer than 3 distinct f_k, first (f_C=0, f_D=-1)"
    )
    with pytest.raises(UnderdeterminedError) as err:
        fitting.fit_epoch_cells({}, "mono-1stage")
    assert str(err.value) == "no budget cell has a usable epoch fit: 0 (f_C, f_D) cell(s) had data"


def test_quadratic_shift_equivariance():
    points = [(f_k, 0.05 * (f_k - 2.5) ** 2 + 2.0) for f_k in range(6)]
    base = fitting.fit_epoch_quadratic(points)
    shifted = fitting.fit_epoch_quadratic([(x, y + 7.0) for x, y in points])
    assert shifted["f_k_star"] == pytest.approx(base["f_k_star"], abs=1e-9)
    assert shifted["curvature"] == pytest.approx(base["curvature"], abs=1e-9)
    assert shifted["intercept"] == pytest.approx(base["intercept"] + 7.0, abs=1e-9)


def test_quadratic_extrapolation_flag():
    points = [(f_k, 0.01 * (f_k - 9.0) ** 2 + 2.0) for f_k in range(4)]
    fit = fitting.fit_epoch_quadratic(points)
    assert fit["extrapolated"]


def test_quadratic_monte_carlo_recovery():
    rng_master = np.random.default_rng(2024)
    seeds = rng_master.integers(0, 2**32, size=100)
    hits = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        points = [
            (f_k, 0.05 * (f_k - 2.3) ** 2 + 2.0 + rng.normal(0.0, 0.005))
            for f_k in range(6)
        ]
        fit = fitting.fit_epoch_quadratic(points)
        # closed-form OLS oracle
        coeffs = np.polyfit([p[0] for p in points], [p[1] for p in points], 2)
        oracle_vertex = -coeffs[1] / (2 * coeffs[0])
        assert fit["f_k_star"] == pytest.approx(oracle_vertex, abs=1e-9)
        if abs(fit["f_k_star"] - 2.3) <= 0.3:
            hits += 1
    assert hits >= 95


# ---------------------------------------------------------------------------
# epoch-extrapolation model
# ---------------------------------------------------------------------------

PLANTED_SHIFT = 0.5


def _planted_level(x):
    """Planted decreasing linear function: 4 at x=-6 down to 0 at x=0."""
    return -(2.0 / 3.0) * x


def planted_curves(
    budget_factors=(-4, -2), step=0.5, exponent=PLANTED_SHIFT, slope=2.0 / 3.0, move=0.0
):
    """Exact (f_C, f_D, log2 k*) cells of log2 k* = -slope * x for x = f_D - exponent * f_C
    in [-4 / slope, 0], each corpus factor f_D then moved by ``move``."""
    curves = []
    for f_C in budget_factors:
        shift = exponent * f_C
        lo = int(round((shift - 4.0 / slope) / step))
        hi = int(round(shift / step))
        for i in range(lo, hi + 1):
            f_D = i * step
            x = f_D - shift
            curves.append((f_C, f_D + move, -slope * x))
    return curves


@pytest.fixture(scope="module")
def planted_model():
    return fitting.fit_kstar_model(planted_curves(), "mono-1stage")


def _positions(doc):
    """The knot positions of a kstar.json document."""
    return [knot["f_D"] for knot in doc["parameters"]["knots"]]


def test_kstar_recovers_planted_model(planted_model):
    model = planted_model
    assert abs(model["parameters"]["shift_exponent"] - PLANTED_SHIFT) <= 0.02
    for knot in model["parameters"]["knots"]:
        assert abs(knot["f_D"] - (-1.5 * knot["h"])) <= 0.1
    assert model["diagnostics"]["rss"] <= 1e-6


def test_kstar_predicts_training_points(planted_model):
    model = fitting.kstar_from_wire(planted_model)
    ref = reference_constants()
    for f_C, f_D, level in planted_curves()[::5]:
        compute = math.ldexp(ref.compute, f_C)
        predicted = fitting.predict_kstar(model, compute, ref.target_tokens * 2.0**f_D)
        assert predicted == pytest.approx(2.0**level, rel=1e-3)


def test_kstar_heldout_budget_within_quarter_step(planted_model):
    model = fitting.kstar_from_wire(planted_model)
    ref = reference_constants()
    for f_D in (-5.0, -4.0, -3.0, -2.0, -1.0):
        target = ref.target_tokens * 2.0**f_D
        predicted = fitting.predict_kstar(model, ref.compute, target)
        planted = 2.0 ** _planted_level(f_D)
        assert abs(math.log2(predicted) - math.log2(planted)) <= 0.25


def test_kstar_planted_point_example(planted_model):
    model = fitting.kstar_from_wire(planted_model)
    ref = reference_constants()
    predicted = fitting.predict_kstar(model, ref.compute, ref.target_tokens * 2.0**-3)
    assert predicted == pytest.approx(4.0, rel=1e-3)


def test_kstar_clamps_to_one_epoch_for_ample_data(planted_model):
    model = fitting.kstar_from_wire(planted_model)
    ref = reference_constants()
    assert fitting.predict_kstar(model, ref.compute, ref.target_tokens * 8) == 1.0


def test_kstar_round_to_power_of_two(planted_model):
    model = fitting.kstar_from_wire(planted_model)
    ref = reference_constants()
    target = ref.target_tokens * 2.0**-2.5  # planted level ~1.667
    raw = fitting.predict_kstar(model, ref.compute, target)
    rounded = fitting.predict_kstar(model, ref.compute, target, round_to_power_of_two=True)
    assert rounded == 2.0 ** round(math.log2(raw))


def test_kstar_extrapolation_is_predict_kstar_over_the_knot_span(planted_model):
    model = fitting.kstar_from_wire(planted_model)
    ref = reference_constants()
    rows = fitting.kstar_extrapolation(model)
    positions = model[2]
    # half-factor steps from one factor below the lowest knot to one above the highest
    factors = [math.log2(d_t / ref.target_tokens) for _, d_t, _ in rows]
    assert math.floor(min(positions)) - 1 == factors[0] and factors[0] <= min(positions) - 1
    assert math.ceil(max(positions)) + 1 == factors[-1] and factors[-1] >= max(positions) + 1
    assert all(b - a == pytest.approx(0.5, abs=1e-9) for a, b in zip(factors, factors[1:]))
    for compute, d_t, k_star in rows:
        assert compute == ref.compute
        assert k_star == fitting.predict_kstar(model, compute, d_t)


@pytest.mark.parametrize(
    "positions, span",
    [((1030.0, 1029.0), "1029 to 1030"), ((5.0, -1110.0), "-1110 to 5"),
     ((5.0, -1e12), "-1e+12 to 5")],
    ids=["overflow", "underflow", "underflow-beyond-the-row-cap"],
)
def test_kstar_extrapolation_beyond_the_float_range_raises(positions, span):
    # 2.0**1031 D_T overflows; D_ref * 2**-1111 underflows to 0
    with pytest.raises(ValidationError,
                       match=f"^knots at f_D {re.escape(span)} leave the float range of D_T$"):
        fitting.kstar_extrapolation((0.5, (0.0, 0.5), positions))


def test_kstar_fit_solves_each_shift_exponent_once(monkeypatch):
    solved = []
    fit_positions = fitting._fit_positions

    def recording(x, y, levels):
        solved.append(tuple(x))
        return fit_positions(x, y, levels)

    monkeypatch.setattr(fitting, "_fit_positions", recording)
    model = fitting.fit_kstar_model(planted_curves(), "mono-1stage")
    assert len(solved) < 30  # a walk from the seed's grid point, not the whole 30-point grid
    assert len(set(solved)) == len(solved)
    assert model["diagnostics"]["rss"] <= 1e-6


#: The fit's 0.05 grid of shift exponents, whose last point is the upper bound itself.
_GRID = [float(a) for a in np.arange(0.05, 1.5, 0.05)] + [1.5]


def _full_grid_search(curves, approach):
    """The shift-exponent search without a seed: every point of the 0.05 grid solved,
    then five halvings of the bracket from the grid minimum, each keeping the lowest of
    the exponent and the two a step either side of it. Returns the best solve made as
    (sse, exponent)."""
    f_C, f_D, y = (np.asarray([c[i] for c in curves], dtype=float) for i in range(3))
    levels = np.arange(0.0, fitting.H_MAX_BY_APPROACH[approach] + 0.25, 0.5)
    lo, hi = fitting.SHIFT_EXPONENT_BOUNDS
    solves = {}

    def sse(exponent):
        if exponent not in solves:
            solves[exponent] = fitting._fit_positions(f_D - exponent * f_C, y, levels).f
        return solves[exponent]

    exponent = min(_GRID, key=lambda a: (sse(a), a))
    for step in (0.025, 0.0125, 0.00625, 0.003125, 0.0015625):
        near = [a for a in (exponent - step, exponent, exponent + step) if lo <= a <= hi]
        exponent = min(near, key=lambda a: (sse(a), a))
    return min((f, a) for a, f in solves.items())


def _surrogate_curves(all_setups, approach, sigma, seed):
    """The k* curves of one dataset of the surrogate grid the fit-quality reports use."""
    params = surrogate.SurrogateParams(noise_sigma=sigma, seed=seed)
    results = analysis.ingest(surrogate.generate_dataset(all_setups, params), all_setups)
    doc = fitting.fit_epoch_cells(analysis.epoch_minima(results, approach), approach)
    return [(fit["f_C"], fit["f_D"], fit["f_k_star"]) for fit in doc["parameters"]["fits"]]


@pytest.mark.parametrize(
    "dataset, rss_tolerance, same_exponent",
    [
        (None, 1e-9, True),
        (("multi-2stage", 0.002, 1), 1e-9, True),
        (("multi-2stage", 0.005, 1), 1e-9, True),
        (("multi-2stage", 0.01, 1), 1e-9, True),
        # a rough profile (RSS ~460 over 35 points) with another local grid minimum at
        # 0.35: the walk from the median shift between budgets reaches the full grid's 0.55
        (("mono-1stage", 0.01, 3), 1e-9, True),
    ],
    ids=["planted", "multi-0.002-1", "multi-0.005-1", "multi-0.01-1", "mono-0.01-3"],
)
def test_seeded_search_matches_the_full_grid_search(
    all_setups, dataset, rss_tolerance, same_exponent
):
    if dataset is None:
        approach, curves = "mono-1stage", planted_curves()
    else:
        approach, curves = dataset[0], _surrogate_curves(all_setups, *dataset)
    model = fitting.fit_kstar_model(curves, approach)
    oracle_sse, oracle_exponent = _full_grid_search(curves, approach)
    assert model["diagnostics"]["rss"] <= oracle_sse * (1.0 + rss_tolerance)
    if same_exponent:
        assert model["parameters"]["shift_exponent"] == oracle_exponent


def _recorded_solves(cells, approach="mono-1stage"):
    """The fit of these cells, and its knot solves in order as (exponent, sse).

    Each exponent is read back from the solve's shifted corpus factors at the cell of
    the largest |f_C|, so it is within a few ulps of the exponent the fit solved."""
    solved = []
    fit_positions = fitting._fit_positions
    index = max(range(len(cells)), key=lambda i: abs(cells[i][0]))
    f_C, f_D, _ = cells[index]

    def recording(x, y, levels):
        solve = fit_positions(x, y, levels)
        solved.append(((f_D - x[index]) / f_C, solve.f))
        return solve

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "_fit_positions", recording)
        doc = fitting.fit_kstar_model(cells, approach)
    return doc, solved


def _on_grid(exponent):
    """The grid point this read-back exponent is, or None when it is off the grid."""
    nearest = min(_GRID, key=lambda a: abs(a - exponent))
    return nearest if abs(nearest - exponent) <= 1e-9 else None


def _walk_and_refinement(solved):
    """Recorded solves split at the first exponent off the grid: the walk's and the rest."""
    walk = list(itertools.takewhile(lambda s: _on_grid(s[0]) is not None, solved))
    return walk, solved[len(walk):]


@settings(max_examples=25)  # each example is one k* fit of ~40-100 ms
@given(
    exponent=st.one_of(st.sampled_from(_GRID), st.floats(0.05, 1.5)),
    budgets=st.lists(st.integers(-6, 0), min_size=2, max_size=2, unique=True),
    slope=st.floats(0.5, 1.5),
)
@example(exponent=0.05, budgets=[-4, -2], slope=2.0 / 3.0)
@example(exponent=1.5, budgets=[-4, -2], slope=2.0 / 3.0)
def test_kstar_refinement_never_loses_the_grid_minimum(exponent, budgets, slope):
    # the halvings start from the walk's grid minimum: the fit's squared error is never
    # above that solve's, and when no refinement solve beats it the model's exponent is
    # that grid float itself
    doc, solved = _recorded_solves(planted_curves(budgets, 0.25, exponent, slope))
    walk, refinement = _walk_and_refinement(solved)
    fx, x = min((f, _on_grid(a)) for a, f in walk)
    assert doc["diagnostics"]["rss"] <= fx
    if all(f > fx for _, f in refinement):
        assert doc["parameters"]["shift_exponent"] == x
        assert doc["diagnostics"]["rss"] == fx


@pytest.mark.parametrize(
    "cells",
    [
        planted_curves(),
        planted_curves((-5, -1), 0.25, 0.863),  # off the grid
        planted_curves(exponent=0.0),  # the walk ends at the lower bound
        planted_curves(exponent=2.0),  # and at the upper one
        [(-4, -1, 3.0), (-4, 0, 1.0), (-2, -1, 1.0), (-2, 0, 3.0)],  # a flat profile
    ],
    ids=["planted", "off-grid", "lower-bound", "upper-bound", "four-cells"],
)
def test_kstar_refinement_solves_at_most_two_exponents_per_step(cells):
    # after the walk, each halving solves only the exponents a step either side of the
    # best so far; every one is off the grid and within 0.05 of the walk's minimum
    _, solved = _recorded_solves(cells)
    walk, refinement = _walk_and_refinement(solved)
    _, start = min((f, _on_grid(a)) for a, f in walk)
    assert 0 < len(refinement) <= 2 * len(fitting._REFINE_STEPS)
    assert all(_on_grid(a) is None for a, _ in refinement)
    assert all(abs(a - start) < 0.05 for a, _ in refinement)


@settings(max_examples=25)  # each example is one k* fit of ~40-100 ms
@given(
    exponent=st.floats(0.0, 2.0),
    budgets=st.lists(st.integers(-6, 0), min_size=2, max_size=2, unique=True),
    slope=st.floats(0.5, 1.5),
)
@example(exponent=2.0, budgets=[-4, -2], slope=2.0 / 3.0)
def test_kstar_fit_finds_a_planted_exponent_inside_its_search_bounds(exponent, budgets, slope):
    # the grid's last point is the upper bound itself, not 0.05 + 29 * 0.05; and the last
    # halving steps 0.0015625, so an exact planted exponent inside the bounds is found to
    # about half of that
    doc = fitting.fit_kstar_model(planted_curves(budgets, 0.25, exponent, slope))
    found = doc["parameters"]["shift_exponent"]
    lo, hi = fitting.SHIFT_EXPONENT_BOUNDS
    assert lo <= found <= hi
    if lo <= exponent <= hi:
        assert found == pytest.approx(exponent, rel=0, abs=1e-3)


@settings(max_examples=25)  # each example is two k* fits of ~40 ms
@given(
    exponent=st.sampled_from(_GRID),
    budgets=st.lists(st.integers(-6, 0), min_size=2, max_size=2, unique=True),
    slope=st.floats(0.5, 1.5),
    shift=st.floats(-3.0, 3.0),
)
def test_kstar_fit_is_shift_equivariant(exponent, budgets, slope, shift):
    # A planted exponent on the search grid makes that grid solve exact, and the 0.25
    # step puts two distinct shifted corpus factors on each knot segment, so every
    # knot is identified.
    base = fitting.fit_kstar_model(planted_curves(budgets, 0.25, exponent, slope))
    moved = fitting.fit_kstar_model(planted_curves(budgets, 0.25, exponent, slope, shift))
    assert moved["parameters"]["shift_exponent"] == base["parameters"]["shift_exponent"]
    for a, b in zip(_positions(base), _positions(moved)):
        assert b - a == pytest.approx(shift, rel=0, abs=1e-9)


@pytest.mark.parametrize(
    "h_max, message",
    [
        *(pytest.param(h_max, f"h_max must be finite and in [0.5, 32], got {h_max}", id=str(h_max))
          for h_max in (0.25, 32.5, 1e9, math.inf, math.nan)),
        # off the level grid: these used to fit levels up to 0.5, 1.0 and 3.5
        *(pytest.param(h_max, f"h_max must be a multiple of 0.5, got {h_max}", id=str(h_max))
          for h_max in (0.74, 0.76, 3.3)),
    ],
)
def test_kstar_h_max_out_of_range_is_rejected_before_fitting(h_max, message, monkeypatch):
    monkeypatch.setattr(fitting, "_fit_positions", None)  # any solve would fail
    with pytest.raises(ValidationError, match=re.escape(message)):
        fitting.fit_kstar_model(planted_curves(), "mono-1stage", h_max=h_max)


def test_kstar_single_budget_unidentifiable():
    with pytest.raises(UnidentifiableError):
        fitting.fit_kstar_model(planted_curves(budget_factors=(-4,)), "mono-1stage")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_kstar_rejects_non_finite_curve_points(value):
    # the CLI's loader rejects these before the fit; a library caller meets this check
    curves = planted_curves()
    curves[2] = (*curves[2][:2], value)
    with pytest.raises(ValidationError, match="k\\* curve points must be finite"):
        fitting.fit_kstar_model(curves, "mono-1stage")


def test_kstar_fit_with_an_overflowing_error_is_a_fit_error():
    # finite points whose squared residual overflows at every shift exponent; the
    # epoch-fits loader rejects such a log2 k*, so only a library caller meets this guard
    curves = planted_curves()
    curves[2] = (*curves[2][:2], 1e308)
    with pytest.raises(FitError, match=r"the squared error of the best fit is not finite \(inf\)"):
        fitting.fit_kstar_model(curves, "mono-1stage")


def test_kstar_fit_whose_knots_lose_their_order_is_a_fit_error(monkeypatch):
    # knots that no data constrain can drift until their gaps fall below float
    # resolution; a best solve whose knots are not strictly decreasing is refused
    def unordered(x, y, levels):
        knots = [-float(i) for i in range(len(levels))]
        knots[2] = knots[1]
        return fitting._Solve(knots, 1.0, 1, 1, True)

    monkeypatch.setattr(fitting, "_fit_positions", unordered)
    with pytest.raises(FitError, match="knot positions of the best fit are not finite"):
        fitting.fit_kstar_model(planted_curves(), "mono-1stage")


def test_kstar_fit_of_four_cells_that_no_monotone_model_fits():
    # the fit carries the large-residual warning, and 4 cells cannot pin 9 knots and an
    # exponent: its squared error is near flat in the exponent, and the knots above the
    # data (levels 2.5-4) drift far out, so only the error and the knots' order are pinned
    cells = [(-4, -1, 3.0), (-4, 0, 1.0), (-2, -1, 1.0), (-2, 0, 3.0)]
    doc = fitting.fit_kstar_model(cells, "mono-1stage")
    assert doc["diagnostics"]["rss"] == pytest.approx(3.0, rel=1e-8)
    assert doc["diagnostics"]["warnings"] == [
        "large residuals (mean squared residual 0.75); "
        "data may not be monotone in the shifted corpus factor",
        "4 cells for 10 free parameters; the data do not pin the model",
    ]
    positions = _positions(doc)
    assert all(b < a for a, b in zip(positions, positions[1:]))


@pytest.mark.parametrize("planted, found", [(0.0, 0.05), (2.0, 1.5)])
def test_kstar_fit_warns_when_the_exponent_ends_at_a_search_bound(planted, found):
    doc = fitting.fit_kstar_model(planted_curves(exponent=planted), "mono-1stage")
    assert doc["parameters"]["shift_exponent"] == pytest.approx(found)
    assert doc["diagnostics"]["warnings"] == [
        f"shift exponent {found} at an end of its search range [0.05, 1.5]; "
        "the data may not pin it"
    ]


def test_kstar_fit_of_more_cells_than_parameters_inside_the_bounds_has_no_warning(
        planted_model):
    assert planted_model["diagnostics"]["n_points"] > 10
    assert planted_model["diagnostics"]["warnings"] == []


def test_initial_positions_survive_edge_slopes_that_overflow():
    # log2 k* values within 4e-308 of 0: the isotonic blocks' edge slopes overflow,
    # so the levels beyond them extend with slope -1
    x = [-4.0, 0.0, -4.0, 4.0]
    y = [4e-308, 3e-308, 2e-308, 1e-310]
    levels = [0.5 * i for i in range(9)]
    positions = np.asarray(fitting._initial_positions(x, y, levels))
    assert np.all(np.isfinite(positions)) and np.all(np.diff(positions) < 0)
    np.testing.assert_array_equal(positions[2:] - positions[1:-1], -0.5)


def test_initial_positions_take_a_block_value_on_a_level_as_its_position():
    # blocks at log2 k* 0 and 5e-324: the slope between them overflows, so level 0,
    # which is the first block's value, must take that block's position, not inf * 0
    positions = fitting._initial_positions([-1.0, 0.0, 1.0, 2.0], [1.0, 5e-324, 5e-324, 0.0],
                                           [0.0, 0.5, 1.0])
    assert positions == [2.0, -0.25, -1.0]


def test_initial_positions_extend_no_steeper_than_four_overall_secants():
    # the top two blocks' values differ by 1e-13: their edge slope is -1e13, which
    # would put levels 2.5-4 at -5e12 .. -2e13 for data in x = [0, 3]
    x, y = [0.0, 1.0, 2.0, 3.0], [2.0, 2.0 - 1e-13, 1.0, 0.0]
    levels = [0.5 * i for i in range(9)]
    positions = fitting._initial_positions(x, y, levels)
    secant = (3.0 - 0.0) / (0.0 - 2.0)  # first to last block
    for level, position in zip(levels, positions):
        if level > 2.0:
            assert position >= x[0] + 4.0 * secant * (level - 2.0) - 1e-12
        else:
            assert 0.0 <= position <= 3.0
    assert all(b < a for a, b in zip(positions, positions[1:]))


def test_kstar_fit_converges_from_a_near_tie_of_edge_blocks(all_setups):
    # multi-2stage noise 0 with each f_k* from _householder_lstsq's vertex, which moves
    # none by more than 4e-14 from lstsq's: near-tied edge blocks then made a seed
    # whose first line search found no step, and the model's RSS rose by a third
    approach = "multi-2stage"
    params = surrogate.SurrogateParams(noise_sigma=0.0)
    cells = analysis.epoch_minima(
        analysis.ingest(surrogate.generate_dataset(all_setups, params), all_setups), approach
    )
    curves = []
    for (f_C, f_D), points in sorted(cells.items()):
        f_k = [float(p[0]) for p in points]
        _, slope, curvature = fitting._householder_lstsq(
            [[1.0] * len(f_k), f_k, [v * v for v in f_k]], [float(p[1]) for p in points]
        )
        curves.append((f_C, f_D, -slope / (2.0 * curvature)))
    lstsq_curves = _surrogate_curves(all_setups, approach, 0.0, 0)
    assert [c[:2] for c in curves] == [c[:2] for c in lstsq_curves]
    assert max(abs(a[2] - b[2]) for a, b in zip(curves, lstsq_curves)) < 1e-13
    model = fitting.fit_kstar_model(curves, approach)
    diagnostics = model["diagnostics"]
    assert diagnostics["converged"] == diagnostics["solves"]
    lstsq_rss = fitting.fit_kstar_model(lstsq_curves, approach)["diagnostics"]["rss"]
    assert diagnostics["rss"] <= lstsq_rss * 1.001


def test_kstar_shift_equivariance(planted_model):
    base = planted_model
    shift = 2
    moved = [
        (f_C + shift, f_D + PLANTED_SHIFT * shift, level)
        for f_C, f_D, level in planted_curves()
    ]
    translated = fitting.fit_kstar_model(moved, "mono-1stage")
    exponent = base["parameters"]["shift_exponent"]
    assert translated["parameters"]["shift_exponent"] == pytest.approx(exponent, abs=0.02)
    for a, b in zip(_positions(base), _positions(translated)):
        assert a == pytest.approx(b, abs=0.05)


def test_kstar_default_levels_by_approach(planted_model):
    mono = planted_model
    levels = [knot["h"] for knot in mono["parameters"]["knots"]]
    assert levels == list(np.arange(0.0, 4.0 + 0.25, 0.5))
    multi = fitting.fit_kstar_model(planted_curves(), "multi-2stage")
    assert multi["parameters"]["knots"][-1]["h"] == 3.0


def test_kstar_warns_on_non_monotone_data():
    curves = []
    for f_C in (-4, -2):
        for f_D in range(-6, 1):
            # increasing in f_D: opposite of the model's monotone shape
            curves.append((f_C, f_D, 2.0 + 0.5 * f_D))
    model = fitting.fit_kstar_model(curves, "mono-1stage")
    assert any("residual" in w for w in model["diagnostics"]["warnings"])


def test_kstar_model_validation():
    doc = {
        "model_type": "kstar",
        "parameters": {
            "approach": "mono-1stage",
            "shift_exponent": 0.5,
            "knots": [{"h": 0.0, "f_D": 0.0}, {"h": 0.5, "f_D": -1.0}, {"h": 1.0, "f_D": -2.0}],
        },
        "diagnostics": {"rss": 0.0, "n_points": 4, "warnings": []},
    }
    assert fitting.kstar_from_wire(doc) == (0.5, (0.0, 0.5, 1.0), (0.0, -1.0, -2.0))
    for field, value, message in [
        ("positions", (0.0, 1.0, 2.0), "positions must be finite and strictly decreasing"),
        ("shift_exponent", -0.1, "shift exponent must be finite and positive"),
        ("shift_exponent", math.nan, "shift_exponent must be a finite number"),
        ("shift_exponent", math.inf, "shift_exponent must be a finite number"),
        ("levels", (0.0, math.nan, 1.0), "h must be a finite number"),
        ("levels", (0.0, 0.5, math.inf), "h must be a finite number"),
        ("levels", (0.5, 0.0, 1.0), "levels must be finite and strictly increasing"),
        ("positions", (math.inf, -1.0, -2.0), "f_D must be a finite number"),
        ("positions", (0.0, math.nan, -2.0), "f_D must be a finite number"),
        ("positions", (0.0, -1.0, -math.inf), "f_D must be a finite number"),
    ]:
        edited = json.loads(json.dumps(doc))
        params = edited["parameters"]
        if field == "shift_exponent":
            params[field] = value
        else:
            key = "h" if field == "levels" else "f_D"
            for knot, number in zip(params["knots"], value):
                knot[key] = number
        with pytest.raises(ValueError, match=message):
            fitting.kstar_from_wire(edited)


def test_kstar_wire_round_trip(planted_model):
    doc = planted_model
    assert doc["model_type"] == "kstar"
    assert set(doc) == {"model_type", "parameters", "diagnostics"}
    back = fitting.kstar_from_wire(json.loads(cli._json_text(doc)))
    knots = doc["parameters"]["knots"]
    assert back == (
        doc["parameters"]["shift_exponent"],
        tuple(knot["h"] for knot in knots),
        tuple(knot["f_D"] for knot in knots),
    )


def test_kstar_fit_records_its_solve_counts(planted_model):
    diagnostics = planted_model["diagnostics"]
    assert diagnostics["nfev"] >= diagnostics["nit"] > 0
    assert 0 < diagnostics["converged"] <= diagnostics["solves"]
    assert list(diagnostics) == [
        "rss", "n_points", "solves", "nfev", "nit", "converged", "warnings"
    ]
    assert all(type(diagnostics[key]) is int for key in ("solves", "nfev", "nit", "converged"))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("solves", -1, r"solves must be >= 0, got -1"),
        ("nfev", 2.5, r"nfev must be an integer, got 2\.5"),
        ("nit", True, r"nit must be an integer, got True"),
        ("converged", "more", r"converged must be <= solves, got \d+ > \d+"),
    ],
)
def test_kstar_model_file_solve_counts_are_checked(planted_model, key, value, message):
    doc = json.loads(json.dumps(planted_model))
    diagnostics = doc["diagnostics"]
    diagnostics[key] = diagnostics["solves"] + 1 if value == "more" else value
    with pytest.raises(ValueError, match=message):
        fitting.kstar_from_wire(doc)


def test_kstar_model_file_without_solve_counts_loads(planted_model):
    doc = json.loads(json.dumps(planted_model))
    for key in ("solves", "nfev", "nit", "converged"):
        del doc["diagnostics"][key]
    assert fitting.kstar_from_wire(doc) == fitting.kstar_from_wire(planted_model)
    partial = json.loads(json.dumps(planted_model))
    del partial["diagnostics"]["nit"]  # the counts come together or not at all
    with pytest.raises(KeyError, match="nit"):
        fitting.kstar_from_wire(partial)


def _segments(x, positions, levels):
    """Locate each x on the ascending knots ``positions[::-1]``.

    Returns the left knot index ``k``, the fraction ``t`` of the way from
    knot ``k`` to knot ``k + 1``, the segment slope and the unclamped value.
    ``k`` clips to the end segments, so x outside the knots extends linearly.
    """
    xp = positions[::-1]  # ascending
    fp = levels[::-1]  # descending along xp
    k = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
    width = xp[k + 1] - xp[k]
    t = (x - xp[k]) / width
    slope = (fp[k + 1] - fp[k]) / width
    return k, t, slope, fp[k] + slope * (x - xp[k])


def _reference_sse_and_grad(theta, x, y, levels):
    """The k* objective written plainly in numpy: ``fitting._sse_and_grad`` must match it
    bit for bit. Both sum in order (``np.cumsum``, not ``res @ res``) and take exp from
    ``math``, whose last bit numpy's exp does not always match. Also returns ``res``."""
    positions = np.asarray(fitting._positions_from_theta(theta))
    k, t, slope, raw = _segments(x, positions, levels)
    active = raw > 0.0
    res = y - np.where(active, raw, 0.0)
    dpred_da = np.where(active, -slope * (1.0 - t), 0.0)
    dpred_db = np.where(active, -slope * t, 0.0)
    n = len(positions)
    grad_ascending = np.bincount(k, -2.0 * res * dpred_da, minlength=n) + np.bincount(
        k + 1, -2.0 * res * dpred_db, minlength=n
    )
    tail_sums = np.cumsum(grad_ascending)[::-1]  # sum over positions i >= m
    exp_gaps = np.asarray([math.exp(v) for v in theta[1:]])
    grad = np.concatenate([[tail_sums[0]], -exp_gaps * tail_sums[1:]])
    return float(np.cumsum(res * res)[-1]), grad, res


def _reference_eval(x, positions, levels):
    """np.interp inside the knots, linear extension of the end segments outside."""
    xp, fp = positions[::-1], levels[::-1]
    left = fp[0] + (fp[1] - fp[0]) / (xp[1] - xp[0]) * (x - xp[0])
    right = fp[-1] + (fp[-1] - fp[-2]) / (xp[-1] - xp[-2]) * (x - xp[-1])
    return np.where(x < xp[0], left, np.where(x > xp[-1], right, np.interp(x, xp, fp)))


def test_piecewise_eval_matches_interp_with_linear_ends():
    rng = np.random.default_rng(3)
    levels = np.arange(0.0, 4.25, 0.5)
    positions = -np.cumsum(rng.uniform(0.1, 1.5, len(levels))) + 1.0
    x = np.concatenate([rng.uniform(-12.0, 4.0, 500), positions])
    np.testing.assert_allclose(
        _segments(x, positions, levels)[3],
        _reference_eval(x, positions, levels),
        rtol=0,
        atol=1e-12,
    )


def test_predict_kstar_matches_interp_with_linear_ends():
    # Knots on a quarter grid and budgets at powers of two, so the shifted corpus
    # factor n - 0.25 j is exact and lands left of, right of, between and on the knots.
    rng = np.random.default_rng(5)
    levels = np.arange(0.5, 4.75, 0.5)  # above 0 a while right of the knots too
    positions = 1.0 - np.cumsum(rng.integers(1, 7, len(levels))) / 4.0
    model = (0.25, tuple(levels), tuple(float(p) for p in positions))
    ref = reference_constants()
    shifted = []
    for n in range(-20, 5):
        for j in range(-4, 1):
            x = n - 0.25 * j
            predicted = fitting.predict_kstar(
                model, math.ldexp(ref.compute, j), math.ldexp(ref.target_tokens, n)
            )
            expected = max(float(_reference_eval(np.asarray(x), positions, levels)), 0.0)
            assert math.log2(predicted) == pytest.approx(expected, rel=0, abs=1e-12)
            shifted.append(x)
    assert min(shifted) < positions[-1] and positions[0] + 1.0 < max(shifted)
    assert set(positions) <= set(shifted)


def _central_differences(f, theta, step=1e-6):
    grad = np.empty_like(theta)
    for i in range(len(theta)):
        e = np.zeros_like(theta)
        e[i] = step
        grad[i] = (f(theta + e) - f(theta - e)) / (2.0 * step)
    return grad


def _perturbed_theta(x, y, levels, rng, offset):
    """Isotonic start plus noise, redrawn until no point lies within 1e-3 of a knot
    and some points fall left of the knots, right of them (under the clamp) and between."""
    positions = fitting._initial_positions(x.tolist(), y.tolist(), levels.tolist())
    theta0 = np.asarray(fitting._theta_from_positions(positions)) + offset
    for _ in range(100):
        theta = theta0 + rng.normal(0.0, 0.1, len(theta0))
        positions = np.asarray(fitting._positions_from_theta(theta.tolist()))
        if (
            np.min(np.abs(x[:, None] - positions[None, :])) > 1e-3
            and np.any(x < positions[-1])
            and np.any(x > positions[0])
            and np.any((x > positions[-1]) & (x < positions[0]))
        ):
            return theta
    raise AssertionError("no kink-free perturbation found")


def _gradient_cases():
    rng = np.random.default_rng(17)
    f_C, f_D, y = (np.asarray([c[i] for c in planted_curves()], dtype=float) for i in range(3))
    for h_max in (3.0, 4.0):
        levels = np.arange(0.0, h_max + 0.25, 0.5)
        for exponent in (0.35, 0.5, 0.8):
            x = f_D - exponent * f_C
            # move the top knot left and narrow the gaps so both ends hold points
            offset = np.concatenate([[-0.4], np.full(len(levels) - 1, -0.3)])
            yield x, y, levels, _perturbed_theta(x, y, levels, rng, offset)
        for _ in range(3):
            x = rng.uniform(-7.0, 2.0, 60)
            noisy = np.maximum(-(2.0 / 3.0) * x, 0.0) + rng.normal(0.0, 0.3, 60)
            yield x, noisy, levels, _perturbed_theta(x, noisy, levels, rng, 0.0)


def test_sse_gradient_matches_central_differences():
    cases = list(_gradient_cases())
    assert len(cases) == 12
    for x, y, levels, theta in cases:
        args = x.tolist(), y.tolist(), levels.tolist()
        sse, grad = fitting._sse_and_grad(theta.tolist(), *args)
        grad = np.asarray(grad)
        numeric = _central_differences(
            lambda t: fitting._sse_and_grad(t.tolist(), *args)[0], theta
        )
        raw = _segments(x, np.asarray(fitting._positions_from_theta(theta.tolist())), levels)[3]
        assert sse == pytest.approx(float(np.sum((y - np.maximum(raw, 0.0)) ** 2)), rel=1e-12)
        assert np.max(np.abs(grad - numeric)) <= 1e-6 * np.max(np.abs(grad))


def test_sse_and_grad_matches_the_plain_objective_bit_for_bit():
    rng = np.random.default_rng(29)
    seen = {"left": 0, "right": 0, "clamped": 0, "overflow": 0}
    for case in range(400):
        n_levels = int(rng.integers(2, 14))
        levels = np.arange(0.0, 0.5 * n_levels - 0.25, 0.5)
        theta = np.concatenate([[rng.uniform(-3.0, 3.0)], rng.normal(-0.5, 1.0, n_levels - 1)])
        if case % 4 == 0:  # some log gaps overflow exp: knots at -inf, the SSE inf or nan
            theta[1 + rng.integers(0, n_levels - 1, 2)] = rng.uniform(710.0, 1000.0, 2)
        elif case % 4 == 1:  # gaps at their minimum
            theta[1:] = rng.uniform(-40.0, -20.0, n_levels - 1)
        x = rng.uniform(-14.0, 6.0, int(rng.integers(1, 60)))
        positions = np.asarray(fitting._positions_from_theta(theta.tolist()))
        if case % 4 == 2:  # points exactly on the knots
            x = np.concatenate([x, positions])
        y = rng.normal(1.0, 1.5, len(x))
        actual = fitting._sse_and_grad(theta.tolist(), x.tolist(), y.tolist(), levels.tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            raw = _segments(x, positions, levels)[3]
        if case % 4 == 0:  # exp raised OverflowError: scored as too long a step
            assert actual[0] == math.inf and not np.isfinite(actual[1]).any()
        else:
            expected_sse, expected_grad, res = _reference_sse_and_grad(theta, x, y, levels)
            assert actual[0] == expected_sse
            assert actual[0] == pytest.approx(float(res @ res), rel=1e-13, abs=0.0)
            assert np.array_equal(actual[1], expected_grad)
        seen["left"] += bool(np.any(x < positions[-1]))
        seen["right"] += bool(np.any(x > positions[0]))
        seen["clamped"] += bool(np.any(raw <= 0.0))
        seen["overflow"] += bool(not np.all(np.isfinite(positions)))
    assert min(seen.values()) >= 50, seen


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "theta",
    [[0.0, -0.5, 709.9, -0.5], [1e18, -30.0, -30.0, -30.0]],
    ids=["log-gap-overflows-exp", "knots-collapse-onto-one-float"],
)
def test_sse_and_grad_scores_an_overflowing_theta_as_inf(theta):
    # math.exp raises OverflowError past a log gap of ~709.78, and a point on a segment
    # whose knots are one float divides by its zero width; either scores inf, which
    # the line search takes as too long a step, and nothing warns
    x, y, levels = [-3.0, -1.0, 0.5, 2e18], [1.5, 1.0, 0.2, 0.0], [0.0, 0.5, 1.0, 1.5]
    sse, grad = fitting._sse_and_grad(theta, x, y, levels)
    assert sse == math.inf
    assert len(grad) == len(theta) and not any(map(math.isfinite, grad))


@pytest.mark.filterwarnings("error")
def test_positions_below_an_overflowing_log_gap_are_minus_inf():
    positions = fitting._positions_from_theta([1.0, 0.0, 800.0, 0.0])
    assert positions == [1.0, 1.0 - (fitting._MIN_KNOT_GAP + 1.0), -math.inf, -math.inf]


def test_kstar_line_search_backs_off_quietly_from_overflowing_log_gaps(monkeypatch):
    # On these noisy planted cells, at this shift exponent (a trial of the golden-section
    # refinement the fit once ran), some line-search trials push a log gap past exp's
    # range. math.exp raises OverflowError there and the objective scores the trial inf,
    # so _line_search counts it as too long; the suite turns any RuntimeWarning into an
    # error.
    rng = np.random.default_rng(0)
    cells = [
        (f_C, f_D, -(2.0 / 3.0) * (f_D - 0.5 * f_C) + rng.normal(0.0, 2.0))
        for f_C in (-4, -2) for f_D in range(-8, 1)
    ]
    exponent = 0.06195867987574658
    non_finite = []
    sse_and_grad = fitting._sse_and_grad

    def recording(theta, x, y, levels):
        sse, grad = sse_and_grad(theta, x, y, levels)
        if not (math.isfinite(sse) and np.isfinite(grad).all()):
            non_finite.append(theta)
        return sse, grad

    monkeypatch.setattr(fitting, "_sse_and_grad", recording)
    x = [f_D - exponent * f_C for f_C, f_D, _ in cells]
    solve = fitting._fit_positions(x, [y for *_, y in cells], [i * 0.5 for i in range(9)])
    assert non_finite and all(np.max(theta[1:]) > 709.0 for theta in non_finite)
    assert math.isfinite(solve.f)
    assert all(map(math.isfinite, solve.x))


# ---------------------------------------------------------------------------
# the k* solvers: L-BFGS and the seed's nonnegative least squares
# ---------------------------------------------------------------------------


def _rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
    return f, g


def test_lbfgs_reaches_the_minimum_of_a_planted_quadratic():
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    hessian = basis @ np.diag(np.logspace(0.0, 3.0, 6)) @ basis.T  # condition number 1000
    minimum = rng.normal(size=6)

    def quadratic(x):
        return 0.5 * (x - minimum) @ hessian @ (x - minimum), hessian @ (x - minimum)

    solve = fitting._lbfgs(quadratic, np.zeros(6))
    assert solve.converged
    assert np.max(np.abs(solve.x - minimum)) <= 1e-6
    assert solve.f <= 1e-12
    assert solve.nfev >= solve.nit > 0


def test_lbfgs_reaches_the_minimum_of_rosenbrock():
    solve = fitting._lbfgs(_rosenbrock, [-1.2, 1.0])
    assert solve.converged
    assert max(abs(v - 1.0) for v in solve.x) <= 1e-5
    assert solve.f <= 1e-10


def test_lbfgs_takes_the_l_bfgs_b_path_on_rosenbrock():
    # a smooth problem: the same line search and update make the same iterates
    optimize = pytest.importorskip("scipy.optimize")
    x0 = np.array([-1.2, 1.0])
    solve = fitting._lbfgs(_rosenbrock, x0)
    oracle = optimize.minimize(_rosenbrock, x0, jac=True, method="L-BFGS-B")
    assert (solve.nfev, solve.nit) == (oracle.nfev, oracle.nit)
    assert np.max(np.abs(solve.x - oracle.x)) <= 1e-9


@pytest.mark.parametrize(
    "value, slope, step",
    [
        (lambda a: (a - 100.0) ** 2, lambda a: 2.0 * (a - 100.0), 1e-3),  # extrapolates
        (lambda a: (a - 1.0) ** 2, lambda a: 2.0 * (a - 1.0), 50.0),  # interpolates
        (lambda a: math.cosh(a - 3.0), lambda a: math.sinh(a - 3.0), 1e-3),
        (lambda a: (a - 2.0) ** 4 - a, lambda a: 4.0 * (a - 2.0) ** 3 - 1.0, 10.0),
        # Moré & Thuente's first test function: the modified function picks the steps
        (lambda a: -a / (a * a + 2.0), lambda a: (a * a - 2.0) / (a * a + 2.0) ** 2, 1e3),
        # a smoothed kink, like the k* fit's at a data point: the bracketed safeguards act
        (lambda a: math.sqrt(1e-4 + (a - 1.0) ** 2) - 0.01 * a,
         lambda a: (a - 1.0) / math.sqrt(1e-4 + (a - 1.0) ** 2) - 0.01, 1e3),
    ],
    ids=["short-start", "long-start", "cosh", "quartic", "more-thuente-1", "smoothed-kink"],
)
def test_line_search_takes_the_minpack_steps(value, slope, step):
    # scipy's port of MINPACK-2's dcsrch, driven as L-BFGS-B drives it, is the oracle
    dcsrch = pytest.importorskip("scipy.optimize._dcsrch")
    trials = []

    def phi(a):
        trials.append(a)
        return value(a)

    oracle = dcsrch.DCSRCH(phi, slope, ftol=1e-3, gtol=0.9, xtol=0.1, stpmin=0.0, stpmax=1e10)
    expected, *_, task = oracle(step, phi0=value(0.0), derphi0=slope(0.0), maxiter=20)
    assert task.startswith(b"CONV")
    evaluations, found = fitting._line_search(
        lambda x: (value(x[0]), np.array([slope(x[0])])),
        np.zeros(1), value(0.0), slope(0.0), np.ones(1), step,
    )
    assert found[0] == pytest.approx(expected, rel=1e-12)
    assert evaluations == len(trials)


def test_lbfgs_treats_a_non_finite_trial_as_too_long():
    # the first step (1 / |g| = 5) lands at x = 1.9, where the value is nan
    def walled(x):
        if x[0] >= 1.5:
            return math.nan, [math.nan]
        return (x[0] - 1.0) ** 2, [2.0 * (x[0] - 1.0)]

    solve = fitting._lbfgs(walled, [0.9])
    assert solve.converged
    assert solve.x[0] == pytest.approx(1.0, abs=1e-5)


def test_lbfgs_returns_a_non_finite_start_unsolved():
    solve = fitting._lbfgs(lambda x: (math.inf, np.full(2, math.nan)), np.zeros(2))
    assert (solve.f, solve.nfev, solve.nit, solve.converged) == (math.inf, 1, 0, False)


def test_lbfgs_stops_unconverged_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(fitting, "_LBFGS_MAXITER", 1)
    solve = fitting._lbfgs(_rosenbrock, [-1.2, 1.0])
    assert (solve.nit, solve.converged) == (1, False)
    assert solve.f < _rosenbrock([-1.2, 1.0])[0]
    assert solve.nfev > solve.nit


@pytest.mark.parametrize(
    "args",
    [
        # an interval end whose value is inf and slope nan makes the cubic step nan
        (0.0, 1.0, -1.0, 2.0, math.inf, math.nan, 1.0, 0.5, -1.5, True, 0.0, 2.0),
        # a trial at the best step itself on a higher value divides by stp - stx = 0
        (1.0, 0.0, -1.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, True, 0.0, 4.0),
        # slopes of one sign that the secant cancels: the cubic's square root of a negative
        (0.0, 0.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0 / 3.0, 1.0, True, 0.0, 2.0),
    ],
    ids=["nan-step", "zero-division", "negative-root"],
)
def test_dcstep_bisects_where_minpack_arithmetic_gives_nan(args):
    stx, _, _, sty, _, _, brackt, stp = fitting._dcstep(*args)
    assert brackt
    assert stp == stx + 0.5 * (sty - stx)


def _planted_smooth_solve(seed):
    """(x, y, levels) of a noisy planted knot solve whose points stay away from the knots.

    Seven knots 0.6-1.2 apart; 100 points fill the middle half of each segment, with
    noise 0.1, so the fitted knots end ~0.1 from the nearest point.
    """
    rng = np.random.default_rng(seed)
    levels = np.arange(0.0, 3.25, 0.5)
    knots = 2.0 - np.concatenate([[0.0], np.cumsum(rng.uniform(0.6, 1.2, len(levels) - 1))])
    xs, ys = [], []
    for j in range(len(levels) - 1):
        right, left = knots[j], knots[j + 1]
        x = rng.uniform(left + 0.25 * (right - left), right - 0.25 * (right - left), 100)
        xs.append(x)
        ys.append(levels[j + 1] + (x - left) / (right - left) * (levels[j] - levels[j + 1]))
    x = np.concatenate(xs)
    return x, np.concatenate(ys) + rng.normal(0.0, 0.1, len(x)), levels


@pytest.mark.parametrize("seed", range(8))
def test_lbfgs_matches_scipy_on_planted_smooth_solves(seed):
    optimize = pytest.importorskip("scipy.optimize")
    x, y, levels = _planted_smooth_solve(seed)
    theta0 = fitting._theta_from_positions(fitting._initial_positions(x, y, levels))

    def sse_and_grad(theta):
        return fitting._sse_and_grad(theta, x, y, levels)

    solve = fitting._lbfgs(sse_and_grad, theta0)
    oracle = optimize.minimize(sse_and_grad, theta0, jac=True, method="L-BFGS-B")
    assert solve.converged and oracle.success
    for theta in (solve.x, oracle.x):  # both end where the squared error is smooth
        assert np.min(np.abs(x[:, None] - fitting._positions_from_theta(theta))) > 1e-3
    assert solve.f == pytest.approx(oracle.fun, rel=1e-8, abs=0.0)


@settings(max_examples=50)
@given(
    exponent=st.floats(0.05, 1.5),
    budgets=st.lists(st.integers(-6, 0), min_size=2, max_size=3, unique=True),
    slope=st.floats(0.5, 1.5),
    move=st.floats(-3.0, 3.0),
)
def test_shift_seed_recovers_a_planted_exponent(exponent, budgets, slope, move):
    # exact planted levels interpolate exactly across budgets, wherever f_D starts
    seed = fitting._shift_seed(*zip(*planted_curves(budgets, 0.25, exponent, slope)))
    moved = fitting._shift_seed(*zip(*planted_curves(budgets, 0.25, exponent, slope, move)))
    assert seed == pytest.approx(exponent, rel=0, abs=1e-12)
    assert moved == pytest.approx(seed, rel=0, abs=1e-12)


def test_shift_seed_of_four_cells_that_no_monotone_model_fits():
    # budget -2 pools to a flat 2.0, which lies on budget -4's fit at f_D = -0.5:
    # the shifts from f_D = -1 and 0 are -0.25 and 0.25
    cells = [(-4, -1, 3.0), (-4, 0, 1.0), (-2, -1, 1.0), (-2, 0, 3.0)]
    assert fitting._shift_seed(*zip(*cells)) == 0.0


def test_shift_seed_of_budgets_whose_levels_do_not_overlap_is_nan():
    cells = [(-4, 0, 3.0), (-4, 1, 2.0), (-2, 0, 1.0), (-2, 1, 0.0)]
    assert math.isnan(fitting._shift_seed(*zip(*cells)))


def test_shift_seed_drops_a_level_whose_segment_overflows():
    # each budget's one segment spans 1e308 to -1e308, wider than the float range: the
    # level -1e308 interpolates to nan and is dropped, and the level 1e308 seeds 0
    cells = [(-4, 0, 1e308), (-4, 1, -1e308), (-2, 0, 1e308), (-2, 1, -1e308)]
    assert fitting._shift_seed(*zip(*cells)) == 0.0


@given(levels=st.lists(st.sampled_from([-1e308, -1.0, 0.0, 1.0, 1e308]), min_size=6, max_size=6))
def test_shift_seed_of_levels_near_the_float_limit_is_never_infinite(levels):
    # pooled or interpolated levels may overflow; such shifts are dropped, not kept as inf
    cells = [(c, d, y) for (c, d), y in zip(itertools.product((-4, -2), (-1, 0, 1)), levels)]
    assert not math.isinf(fitting._shift_seed(*zip(*cells)))


# ---------------------------------------------------------------------------
# ratio power law
# ---------------------------------------------------------------------------

GROUPS = [(4.7e8, 2.1e9), (2.35e8, 4.2e9), (1.2e8, 8.4e9), (9.4e8, 1.05e9)]
LEVELS = [3.1, 2.9, 2.7, 3.3]
RATIOS = (1.0, 0.5, 0.25, 0.125)


def planted_ratio_points(exponent=-0.101, noise=None, reps=1, levels=LEVELS):
    points = []
    index = 0
    for (m, d), level in zip(GROUPS, levels):
        for _ in range(reps):
            for r in RATIOS:
                loss = level * r**exponent
                if noise is not None:
                    loss *= math.exp(noise[index])
                    index += 1
                points.append((m, d, r, loss))
    return points


def intercepts(doc):
    """The {(M, D): L0} intercepts a ratio.json document holds."""
    return {(e["M"], e["D"]): e["L0"] for e in doc["parameters"]["intercepts"]}


def test_ratio_exact_recovery():
    fit = fitting.fit_ratio_power_law(planted_ratio_points())
    assert abs(fit["parameters"]["exponent"] - (-0.101)) <= 1e-12
    for group, level in zip(GROUPS, LEVELS):
        assert intercepts(fit)[group] == pytest.approx(level, rel=1e-12)
    assert fit["diagnostics"]["rss"] <= 1e-24
    assert fit["diagnostics"]["group_count"] == 4


def test_ratio_loss_inflation_at_reference_exponent():
    fit = fitting.fit_ratio_power_law(planted_ratio_points())
    exponent, level = fit["parameters"]["exponent"], intercepts(fit)[GROUPS[0]]
    inflation = (level * 0.5**exponent) / (level * 1.0**exponent)
    assert inflation == pytest.approx(0.5**-0.101, rel=1e-12)
    assert inflation == pytest.approx(1.0725, abs=5e-4)


@given(
    exponent=st.floats(-1.0, -0.01),
    levels=st.lists(st.floats(1.0, 5.0), min_size=len(GROUPS), max_size=len(GROUPS)),
    noise=st.lists(st.floats(-0.05, 0.05), min_size=16, max_size=16),
    group=st.sampled_from(GROUPS),
    factor=st.floats(0.01, 100.0),
)
def test_ratio_group_scaling_invariance(exponent, levels, noise, group, factor):
    # scaling one group's losses moves only that group's intercept; the noise makes the
    # groups' own slopes differ, so a fit that weighted groups by level would move too
    points = planted_ratio_points(exponent, noise, levels=levels)
    base = fitting.fit_ratio_power_law(points)
    scaled = fitting.fit_ratio_power_law(
        [(m, d, r, loss * (factor if (m, d) == group else 1.0)) for m, d, r, loss in points]
    )
    assert scaled["parameters"]["exponent"] == pytest.approx(
        base["parameters"]["exponent"], rel=0, abs=1e-12
    )
    for key, intercept in intercepts(base).items():
        expected = factor * intercept if key == group else intercept
        assert intercepts(scaled)[key] == pytest.approx(expected, rel=1e-12)


def test_ratio_degenerate_group_listed():
    points = planted_ratio_points()
    points.insert(5, (7.7e7, 3.3e9, 0.5, 3.0))  # new group with a single ratio
    points.append((7.7e7, 1.1e9, 0.25, 3.0))  # and another
    fit = fitting.fit_ratio_power_law(points)
    base = fitting.fit_ratio_power_law(planted_ratio_points())
    assert fit["diagnostics"]["warnings"] == [
        "group (M=7.7e+07, D=1.1e+09) dropped: single ratio value",
        "group (M=7.7e+07, D=3.3e+09) dropped: single ratio value",
    ]
    assert fit["parameters"] == base["parameters"]
    counts = ("rss", "n_points", "group_count")
    assert [fit["diagnostics"][k] for k in counts] == [base["diagnostics"][k] for k in counts]
    assert fitting.ratio_fit_from_wire(fit) == (fit["parameters"]["exponent"], intercepts(fit))


@pytest.mark.parametrize(
    "points", [[], [(1e8, 1e9, 0.5, 2.0), (1e8, 1e9, 0.5, 2.1), (2e8, 1e9, 1.0, 2.0)]]
)
def test_ratio_without_a_usable_group_is_underdetermined(points):
    with pytest.raises(UnderdeterminedError) as err:
        fitting.fit_ratio_power_law(points)
    singles = len({(m, d) for m, d, *_ in points})  # every group has a single ratio
    assert str(err.value) == (
        "no (model scale, total tokens) group has two distinct ratios: "
        f"{singles} group(s) had a single ratio value"
    )


def test_ratio_rejects_bad_values():
    with pytest.raises(ValidationError):
        fitting.fit_ratio_power_law([(1e8, 1e9, 1.5, 2.0), (1e8, 1e9, 1.0, 2.0)])
    with pytest.raises(ValidationError):
        fitting.fit_ratio_power_law([(1e8, 1e9, 0.5, -2.0), (1e8, 1e9, 1.0, 2.0)])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", range(4))  # M, D, ratio, loss
def test_ratio_rejects_non_finite_points(field, value):
    points = [[1e8, 1e9, 1.0, 2.0], [1e8, 1e9, 0.5, 2.1]]
    for point in points:
        point[field] = value
    with pytest.raises(ValidationError, match="ratio points must be finite"):
        fitting.fit_ratio_power_law([tuple(point) for point in points])


def test_predict_ratio_loss_is_the_power_law_of_each_kept_group():
    fit = fitting.fit_ratio_power_law(
        [(1e8, 1e9, r, 2.0 * r**-0.3) for r in (1.0, 0.5, 0.25)] + [(2e8, 1e9, 0.5, 3.0)]
    )
    model = fitting.ratio_fit_from_wire(fit)
    exponent, intercepts = model
    loss = fitting.predict_ratio_loss(model, 1e8, 1e9, 0.125)
    assert loss == intercepts[1e8, 1e9] * 0.125**exponent
    assert loss == pytest.approx(2.0 * 8**0.3)
    assert fitting.predict_ratio_loss(model, 2e8, 1e9, 0.5) is None  # a dropped group


@pytest.mark.parametrize(
    "exponent, level, r",
    [(-400.0, 1.0, 1e-300), (-10.0, 1e300, 1e-2), (400.0, 1.0, 1e-300)],
    ids=["power-overflows", "product-overflows", "underflows-to-zero"],
)
def test_predict_ratio_loss_beyond_the_float_range_raises(exponent, level, r):
    message = f"predicted loss of group (M=1, D=2) at r={r:.6g} leaves the float range"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fitting.predict_ratio_loss((exponent, {(1.0, 2.0): level}), 1.0, 2.0, r)


def test_ratio_fit_adds_left_to_right_on_every_python():
    # from Python 3.12 the built-in sum compensates its rounding, which moves the last
    # bit of this fit's exponent and L0; the fit keeps numpy's left-to-right order
    ratios, losses = (1.0, 0.75, 0.5), (2.5, 3.3, 2.9)
    doc = fitting.fit_ratio_power_law([(1e8, 1e9, r, loss) for r, loss in zip(ratios, losses)])
    x, y = [math.log(r) for r in ratios], [math.log(loss) for loss in losses]
    x_mean, y_mean = (x[0] + x[1] + x[2]) / 3, (y[0] + y[1] + y[2]) / 3
    dx, dy = [a - x_mean for a in x], [b - y_mean for b in y]
    exponent = (dx[0] * dy[0] + dx[1] * dy[1] + dx[2] * dy[2]) / (
        dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2]
    )
    assert doc["parameters"]["exponent"] == exponent
    assert doc["parameters"]["intercepts"][0]["L0"] == math.exp(y_mean - exponent * x_mean)
    assert fitting._sum([1e16, 1.0, 1.0]) == 1e16  # 3.12's sum gives 1e16 + 2


def _numpy_ratio_fit(points):
    """(exponent, L0s, rss) of the numpy ratio fit that fit_ratio_power_law replaced."""
    np = pytest.importorskip("numpy")
    groups = {}
    for m, d, r, loss in points:
        groups.setdefault((m, d), []).append((math.log(r), math.log(loss)))
    numerator = 0.0
    denominator = 0.0
    centered = {}
    for key in sorted(groups):
        values = groups[key]
        if len({x for x, _ in values}) < 2:
            continue
        x = np.asarray([v[0] for v in values])
        y = np.asarray([v[1] for v in values])
        x_mean, y_mean = float(x.mean()), float(y.mean())
        numerator += float(((x - x_mean) * (y - y_mean)).sum())
        denominator += float(((x - x_mean) ** 2).sum())
        centered[key] = (x, y, x_mean, y_mean)
    exponent = numerator / denominator
    levels = []
    rss = 0.0
    for x, y, x_mean, y_mean in centered.values():
        levels.append(math.exp(y_mean - exponent * x_mean))
        res = y - (y_mean + exponent * (x - x_mean))
        rss += float(res @ res)
    return exponent, levels, rss


def _ratio_sweeps(min_size, max_size):
    """Planted ratio fits: an exponent and 1-4 groups of (level, [(f_r, log noise), ...])."""
    group = st.tuples(
        st.floats(0.5, 50.0),
        st.lists(st.tuples(st.integers(0, 6), st.floats(-0.05, 0.05)),
                 min_size=min_size, max_size=max_size),
    )
    return st.tuples(st.floats(-1.0, -0.01), st.lists(group, min_size=1, max_size=4))


def _fit_both(sweep):
    """This module's fit and the numpy oracle's on one planted sweep, or None for neither."""
    exponent, groups = sweep
    points = [
        (1.5e7 * (i + 1), 2.13e9, 2.0**-f_r, level * 2.0 ** (-f_r * exponent) * math.exp(noise))
        for i, (level, draws) in enumerate(groups)
        for f_r, noise in draws
    ]
    try:
        doc = fitting.fit_ratio_power_law(points)
    except UnderdeterminedError:  # every group drew a single ratio
        with pytest.raises(ZeroDivisionError):
            _numpy_ratio_fit(points)
        return None
    params = doc["parameters"]
    fit = (params["exponent"], [e["L0"] for e in params["intercepts"]], doc["diagnostics"]["rss"])
    return fit, _numpy_ratio_fit(points)


@settings(max_examples=400)
@given(sweep=_ratio_sweeps(2, 7))
def test_ratio_fit_matches_the_numpy_fit_bit_for_bit_below_8_points(sweep):
    # numpy's pairwise sum adds fewer than 8 terms left to right, as the built-in sum
    # does; only the BLAS dot product behind `res @ res` may round the RSS its own way
    fits = _fit_both(sweep)
    if fits is not None:
        (exponent, levels, rss), (oracle_exponent, oracle_levels, oracle_rss) = fits
        assert (exponent, levels) == (oracle_exponent, oracle_levels)
        assert rss == pytest.approx(oracle_rss, rel=1e-14, abs=0.0)


@settings(max_examples=400)
@given(sweep=_ratio_sweeps(8, 12))
def test_ratio_fit_matches_the_numpy_fit_from_8_points(sweep):
    # from 8 terms numpy sums in 8 interleaved partial sums, so the bits may differ
    fits = _fit_both(sweep)
    if fits is not None:
        (exponent, levels, _), (oracle_exponent, oracle_levels, _) = fits
        assert exponent == pytest.approx(oracle_exponent, rel=1e-14, abs=0.0)
        assert levels == pytest.approx(oracle_levels, rel=1e-14, abs=0.0)


def test_ratio_predictions_positive():
    fit = fitting.fit_ratio_power_law(planted_ratio_points())
    exponent, levels = fit["parameters"]["exponent"], intercepts(fit)
    assert all(
        levels[m, d] * r**exponent > 0 for (m, d) in GROUPS for r in (1.0, 0.5, 0.03125)
    )


def test_ratio_monte_carlo_recovery():
    # 40 points across 4 groups: 5 ratio values, 2 repeats each
    ratios = (1.0, 0.5, 0.25, 0.125, 0.0625)
    rng_master = np.random.default_rng(77)
    seeds = rng_master.integers(0, 2**32, size=100)
    hits = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        points = []
        for (m, d), level in zip(GROUPS, LEVELS):
            for _ in range(2):
                for r in ratios:
                    loss = level * r**-0.101 * math.exp(rng.normal(0.0, 0.01))
                    points.append((m, d, r, loss))
        assert len(points) == 40
        fit = fitting.fit_ratio_power_law(points)
        # independent centered-regression oracle
        num = den = 0.0
        for m, d in GROUPS:
            xs = np.array([math.log(p[2]) for p in points if (p[0], p[1]) == (m, d)])
            ys = np.array([math.log(p[3]) for p in points if (p[0], p[1]) == (m, d)])
            num += ((xs - xs.mean()) * (ys - ys.mean())).sum()
            den += ((xs - xs.mean()) ** 2).sum()
        assert fit["parameters"]["exponent"] == pytest.approx(num / den, abs=1e-12)
        if abs(fit["parameters"]["exponent"] - (-0.101)) <= 0.01:
            hits += 1
    assert hits >= 95


def test_ratio_wire_schema():
    doc = fitting.fit_ratio_power_law(planted_ratio_points())
    assert doc["model_type"] == "ratio_power_law"
    assert set(doc["diagnostics"]) == {"rss", "n_points", "group_count", "warnings"}
    assert len(doc["parameters"]["intercepts"]) == 4


# ---------------------------------------------------------------------------
# model files: what a fitter returns, its loader reads
# ---------------------------------------------------------------------------

#: A loss log-uniform over 1e-300..1e300.
_losses = st.floats(0.0, 1.0).map(lambda t: 10.0 ** (600.0 * t - 300.0))


@given(
    groups=st.dictionaries(
        st.tuples(st.integers(-1, 6), st.integers(-7, 2)),  # (f_M, f_D)
        st.dictionaries(st.integers(0, 6), _losses, min_size=1, max_size=3),  # f_r -> loss
        min_size=2,
        max_size=5,
    )
)
def test_every_ratio_fit_is_a_file_its_loader_reads(groups):
    # the ratio-1 loss of a fit through losses 1e300 apart can overflow, or underflow to 0
    points = [
        (math.ldexp(1.5e7, f_M), math.ldexp(2.13e9, f_D), 2.0**-f_r, loss)
        for (f_M, f_D), losses in groups.items()
        for f_r, loss in losses.items()
    ]
    try:
        doc = fitting.fit_ratio_power_law(points)
    except FitError:
        return
    loaded = fitting.ratio_fit_from_wire(json.loads(cli._json_text(doc)))
    assert loaded == (doc["parameters"]["exponent"], intercepts(doc))
    assert len(intercepts(doc)) == len(doc["parameters"]["intercepts"])


#: What both fitters and both loaders say to the one approach they have no model for.
_UNKNOWN_APPROACH = "approach must be one of ['mono-1stage', 'multi-2stage'], got 'multi-1stage'"


@given(
    cells=st.dictionaries(
        st.tuples(st.integers(-4, 0), st.integers(-7, 2)),  # (f_C, f_D)
        st.dictionaries(st.integers(0, 5), _losses, min_size=2).map(lambda d: sorted(d.items())),
        min_size=1,
        max_size=4,
    ),
    approach=st.sampled_from(space.APPROACHES),
)
def test_every_epoch_fit_is_a_file_its_loader_reads(cells, approach):
    # an approach the loader refuses is refused by the fitter too
    try:
        doc = fitting.fit_epoch_cells(cells, approach)
    except ValidationError as exc:
        assert approach not in fitting.H_MAX_BY_APPROACH
        assert str(exc) == _UNKNOWN_APPROACH
        return
    except FitError:
        return
    loaded = fitting.epoch_fits_from_wire(json.loads(cli._json_text(doc)))
    assert loaded == (approach, doc["parameters"]["fits"], len(doc["diagnostics"]["warnings"]))
    fits = doc["parameters"]["fits"]
    assert [list(cell) for cell in fits] == [["f_C", "f_D", *fitting._EPOCH_CELL]] * len(fits)


#: A log2 k* anywhere from 1e-300 to 1e300 in size, of either sign, or a moderate one.
_levels = st.one_of(
    st.floats(-5.0, 5.0), st.builds(math.copysign, _losses, st.sampled_from([1.0, -1.0]))
)


@settings(max_examples=40)  # most fits take milliseconds, and one over a second
@given(
    cells=st.dictionaries(
        st.tuples(st.integers(-4, 0), st.integers(-7, 2)),  # (f_C, f_D)
        _levels,  # log2 k*
        min_size=4,
        max_size=8,
    ),
    approach=st.sampled_from(space.APPROACHES),
    h_max=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_every_kstar_fit_is_a_file_its_loader_reads(cells, approach, h_max):
    # an h_max of at most 2 keeps a fit to five knots: with the default nine, some of
    # these sparse cell sets take seconds to fit
    try:
        doc = fitting.fit_kstar_model([(*key, y) for key, y in cells.items()], approach, h_max)
    except ValidationError as exc:
        assert approach not in fitting.H_MAX_BY_APPROACH
        assert str(exc) == _UNKNOWN_APPROACH
        return
    except FitError:
        return
    params = doc["parameters"]
    knots = params["knots"]
    loaded = fitting.kstar_from_wire(json.loads(cli._json_text(doc)))
    assert loaded == (
        params["shift_exponent"], tuple(k["h"] for k in knots), tuple(k["f_D"] for k in knots)
    )
    assert list(doc) == ["model_type", "parameters", "diagnostics"]
    assert list(params) == ["approach", "shift_exponent", "knots"]
    assert list(doc["diagnostics"]) == ["rss", "n_points", *fitting._SOLVE_COUNTS, "warnings"]
