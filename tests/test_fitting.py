import math

import numpy as np
import pytest

from mixsweep import fitting
from mixsweep.budget import reference_constants
from mixsweep.errors import (
    DegenerateGroupError,
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
    assert fit.convex
    assert abs(fit.minimizer - 2.0) <= 1e-9
    assert abs(fit.k_star - 4.0) <= 1e-8
    assert fit.rss <= 1e-18
    assert not fit.extrapolated


def test_quadratic_concave_falls_back_to_grid_argmin():
    points = [(f_k, -((f_k - 2) ** 2) + 5) for f_k in range(6)]
    fit = fitting.fit_epoch_quadratic(points)
    assert not fit.convex
    assert fit.minimizer == 5.0  # smallest loss sits at the grid edge


def test_quadratic_underdetermined():
    with pytest.raises(UnderdeterminedError):
        fitting.fit_epoch_quadratic([(0, 1.0), (0, 1.1), (1, 1.2)])


def test_quadratic_shift_equivariance():
    points = [(f_k, 0.05 * (f_k - 2.5) ** 2 + 2.0) for f_k in range(6)]
    base = fitting.fit_epoch_quadratic(points)
    shifted = fitting.fit_epoch_quadratic([(x, y + 7.0) for x, y in points])
    assert shifted.minimizer == pytest.approx(base.minimizer, abs=1e-9)
    assert shifted.curvature == pytest.approx(base.curvature, abs=1e-9)
    assert shifted.intercept == pytest.approx(base.intercept + 7.0, abs=1e-9)


def test_quadratic_extrapolation_flag():
    points = [(f_k, 0.01 * (f_k - 9.0) ** 2 + 2.0) for f_k in range(4)]
    fit = fitting.fit_epoch_quadratic(points)
    assert fit.extrapolated


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
        assert fit.minimizer == pytest.approx(oracle_vertex, abs=1e-9)
        if abs(fit.minimizer - 2.3) <= 0.3:
            hits += 1
    assert hits >= 95


# ---------------------------------------------------------------------------
# epoch-extrapolation model
# ---------------------------------------------------------------------------

PLANTED_SHIFT = 0.5


def _planted_level(x):
    """Planted decreasing linear function: 4 at x=-6 down to 0 at x=0."""
    return -(2.0 / 3.0) * x


def planted_curves(budget_factors=(-4, -2), step=0.5):
    ref = reference_constants()
    curves = []
    for f_C in budget_factors:
        shift = PLANTED_SHIFT * f_C
        lo = int(round((-6 + shift) / step))
        hi = int(round((0 + shift) / step))
        for i in range(lo, hi + 1):
            f_D = i * step
            x = f_D - shift
            curves.append((math.ldexp(ref.compute, f_C), f_D, _planted_level(x)))
    return curves


@pytest.fixture(scope="module")
def planted_model():
    return fitting.fit_kstar_model(planted_curves(), "mono-1stage")


def test_kstar_recovers_planted_model(planted_model):
    model = planted_model
    assert abs(model.shift_exponent - PLANTED_SHIFT) <= 0.02
    for level, position in zip(model.levels, model.positions):
        assert abs(position - (-1.5 * level)) <= 0.1
    assert model.rss <= 1e-6


def test_kstar_predicts_training_points(planted_model):
    model = planted_model
    ref = reference_constants()
    for compute, f_D, level in planted_curves()[::5]:
        predicted = fitting.predict_kstar(model, compute, math.ldexp(ref.target_tokens, 0) * 2.0**f_D)
        assert predicted == pytest.approx(2.0**level, rel=1e-3)


def test_kstar_heldout_budget_within_quarter_step(planted_model):
    model = planted_model
    ref = reference_constants()
    for f_D in (-5.0, -4.0, -3.0, -2.0, -1.0):
        target = ref.target_tokens * 2.0**f_D
        predicted = fitting.predict_kstar(model, ref.compute, target)
        planted = 2.0 ** _planted_level(f_D)
        assert abs(math.log2(predicted) - math.log2(planted)) <= 0.25


def test_kstar_planted_point_example(planted_model):
    model = planted_model
    ref = reference_constants()
    predicted = fitting.predict_kstar(model, ref.compute, ref.target_tokens * 2.0**-3)
    assert predicted == pytest.approx(4.0, rel=1e-3)


def test_kstar_clamps_to_one_epoch_for_ample_data(planted_model):
    model = planted_model
    ref = reference_constants()
    assert fitting.predict_kstar(model, ref.compute, ref.target_tokens * 8) == 1.0


def test_kstar_round_to_power_of_two(planted_model):
    model = planted_model
    ref = reference_constants()
    target = ref.target_tokens * 2.0**-2.5  # planted level ~1.667
    raw = fitting.predict_kstar(model, ref.compute, target)
    rounded = fitting.predict_kstar(model, ref.compute, target, round_to_power_of_two=True)
    assert rounded == 2.0 ** round(math.log2(raw))


def test_kstar_single_budget_unidentifiable():
    with pytest.raises(UnidentifiableError):
        fitting.fit_kstar_model(planted_curves(budget_factors=(-4,)), "mono-1stage")


def test_kstar_shift_equivariance(planted_model):
    base = planted_model
    shift = 2
    moved = [
        (compute * 2.0**shift, f_D + PLANTED_SHIFT * shift, level)
        for compute, f_D, level in planted_curves()
    ]
    translated = fitting.fit_kstar_model(moved, "mono-1stage")
    assert translated.shift_exponent == pytest.approx(base.shift_exponent, abs=0.02)
    for a, b in zip(base.positions, translated.positions):
        assert a == pytest.approx(b, abs=0.05)


def test_kstar_default_levels_by_approach(planted_model):
    mono = planted_model
    assert mono.levels == tuple(np.arange(0.0, 4.0 + 0.25, 0.5))
    multi = fitting.fit_kstar_model(planted_curves(), "multi-2stage")
    assert multi.levels[-1] == 3.0


def test_kstar_warns_on_non_monotone_data():
    ref = reference_constants()
    curves = []
    for f_C in (-4, -2):
        for f_D in range(-6, 1):
            # increasing in f_D: opposite of the model's monotone shape
            curves.append((math.ldexp(ref.compute, f_C), float(f_D), 2.0 + 0.5 * f_D))
    model = fitting.fit_kstar_model(curves, "mono-1stage")
    assert any("residual" in w for w in model.warnings)


def test_kstar_model_validation():
    with pytest.raises(ValidationError):
        fitting.KStarModel(
            approach="mono-1stage",
            shift_exponent=0.5,
            levels=(0.0, 0.5),
            positions=(0.0, 1.0),  # not decreasing
            rss=0.0,
            n_points=4,
        )
    with pytest.raises(ValidationError):
        fitting.KStarModel(
            approach="mono-1stage",
            shift_exponent=-0.1,
            levels=(0.0, 0.5),
            positions=(0.0, -1.0),
            rss=0.0,
            n_points=4,
        )


def test_kstar_wire_round_trip(planted_model):
    model = planted_model
    doc = fitting.kstar_to_wire(model)
    assert doc["model_type"] == "kstar"
    assert set(doc) == {"model_type", "parameters", "diagnostics"}
    back = fitting.kstar_from_wire(doc)
    assert back == model


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
        fitting._piecewise_eval(x, positions, levels),
        _reference_eval(x, positions, levels),
        rtol=0,
        atol=1e-12,
    )


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
    theta0 = fitting._theta_from_positions(fitting._initial_positions(x, y, levels)) + offset
    for _ in range(100):
        theta = theta0 + rng.normal(0.0, 0.1, len(theta0))
        positions = fitting._positions_from_theta(theta)
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
    ref = reference_constants()
    curves = planted_curves()
    delta = np.log2([c[0] / ref.compute for c in curves])
    f_D = np.asarray([c[1] for c in curves])
    y = np.asarray([c[2] for c in curves])
    for h_max in (3.0, 4.0):
        levels = np.arange(0.0, h_max + 0.25, 0.5)
        for exponent in (0.35, 0.5, 0.8):
            x = f_D - exponent * delta
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
        sse, grad = fitting._sse_and_grad(theta, x, y, levels)
        numeric = _central_differences(
            lambda t: fitting._sse_and_grad(t, x, y, levels)[0], theta
        )
        raw = fitting._piecewise_eval(x, fitting._positions_from_theta(theta), levels)
        assert sse == pytest.approx(float(np.sum((y - np.maximum(raw, 0.0)) ** 2)), rel=1e-12)
        assert np.max(np.abs(grad - numeric)) <= 1e-6 * np.max(np.abs(grad))


# ---------------------------------------------------------------------------
# ratio power law
# ---------------------------------------------------------------------------

GROUPS = [(4.7e8, 2.1e9), (2.35e8, 4.2e9), (1.2e8, 8.4e9), (9.4e8, 1.05e9)]
LEVELS = [3.1, 2.9, 2.7, 3.3]
RATIOS = (1.0, 0.5, 0.25, 0.125)


def planted_ratio_points(exponent=-0.101, noise=None, reps=1):
    points = []
    index = 0
    for (m, d), level in zip(GROUPS, LEVELS):
        for _ in range(reps):
            for r in RATIOS:
                loss = level * r**exponent
                if noise is not None:
                    loss *= math.exp(noise[index])
                    index += 1
                points.append((m, d, r, loss))
    return points


def test_ratio_exact_recovery():
    fit = fitting.fit_ratio_power_law(planted_ratio_points())
    assert abs(fit.exponent - (-0.101)) <= 1e-12
    for group, level in zip(GROUPS, LEVELS):
        assert fit.intercepts[group] == pytest.approx(level, rel=1e-12)
    assert fit.rss <= 1e-24
    assert fit.group_count == 4


def test_ratio_loss_inflation_at_reference_exponent():
    fit = fitting.fit_ratio_power_law(planted_ratio_points())
    inflation = fit.predict(*GROUPS[0], 0.5) / fit.predict(*GROUPS[0], 1.0)
    assert inflation == pytest.approx(0.5**-0.101, rel=1e-12)
    assert inflation == pytest.approx(1.0725, abs=5e-4)


def test_ratio_group_scaling_invariance():
    base = fitting.fit_ratio_power_law(planted_ratio_points())
    scaled_points = [
        (m, d, r, loss * (3.0 if (m, d) == GROUPS[0] else 1.0))
        for m, d, r, loss in planted_ratio_points()
    ]
    scaled = fitting.fit_ratio_power_law(scaled_points)
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
    assert scaled.intercepts[GROUPS[0]] == pytest.approx(3.0 * base.intercepts[GROUPS[0]], rel=1e-12)
    assert scaled.intercepts[GROUPS[1]] == pytest.approx(base.intercepts[GROUPS[1]], rel=1e-12)


def test_ratio_degenerate_group_listed():
    points = planted_ratio_points()
    points.append((7.7e7, 3.3e9, 0.5, 3.0))  # new group with a single ratio
    with pytest.raises(DegenerateGroupError, match="7.7e"):
        fitting.fit_ratio_power_law(points)


def test_ratio_rejects_bad_values():
    with pytest.raises(ValidationError):
        fitting.fit_ratio_power_law([(1e8, 1e9, 1.5, 2.0), (1e8, 1e9, 1.0, 2.0)])
    with pytest.raises(ValidationError):
        fitting.fit_ratio_power_law([(1e8, 1e9, 0.5, -2.0), (1e8, 1e9, 1.0, 2.0)])


def test_ratio_predictions_positive():
    fit = fitting.fit_ratio_power_law(planted_ratio_points())
    assert all(
        fit.predict(m, d, r) > 0 for (m, d) in GROUPS for r in (1.0, 0.5, 0.03125)
    )
    with pytest.raises(ValidationError):
        fit.predict(1.0, 1.0, 0.5)


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
        assert fit.exponent == pytest.approx(num / den, abs=1e-12)
        if abs(fit.exponent - (-0.101)) <= 0.01:
            hits += 1
    assert hits >= 95


def test_ratio_wire_schema():
    doc = fitting.ratio_fit_to_wire(fitting.fit_ratio_power_law(planted_ratio_points()))
    assert doc["model_type"] == "ratio_power_law"
    assert set(doc["diagnostics"]) == {"rss", "n_points", "group_count", "warnings"}
    assert len(doc["parameters"]["intercepts"]) == 4
