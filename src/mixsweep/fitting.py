"""The three fitted models and their prediction operations.

1. Quadratic fit of loss against the log2 epoch factor, giving a
   continuous epoch optimum per budget cell.
2. The epoch-extrapolation model: log2 of the optimal epoch count equals a
   monotone decreasing piecewise-linear function of the corpus factor
   shifted by ``a * log2(compute / reference)``. Fitted by an outer 1-D
   search over the shift exponent (coarse grid, then golden section) with
   an inner monotone-constrained least-squares fit of the knot positions,
   initialized from isotonic regression of the pooled shifted data. The
   inner fit runs L-BFGS-B on the exact gradient of the squared error, so
   it needs no finite-difference probes.
3. The ratio power law with one shared exponent across (model, data)
   groups, fitted in closed form by within-group centering in log space.

Regressions run on natural logs internally; reported quantities are base-2
where the grid is base-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .budget import reference_constants
from .errors import (
    DegenerateGroupError,
    UnderdeterminedError,
    UnidentifiableError,
    ValidationError,
)
from .space import APPROACH_MONO_1STAGE, APPROACH_MULTI_2STAGE

#: Default top level of the piecewise-linear epoch model per approach
#: (log2 of the largest optimal epoch count the model resolves).
H_MAX_BY_APPROACH = {APPROACH_MONO_1STAGE: 4.0, APPROACH_MULTI_2STAGE: 3.0}

#: Spacing of the fixed function levels h_j = 0, 0.5, ..., h_max.
LEVEL_STEP = 0.5

#: Search interval for the shift exponent.
SHIFT_EXPONENT_BOUNDS = (0.05, 1.5)

#: Minimum gap between adjacent knot positions (keeps the fit invertible).
_MIN_KNOT_GAP = 1e-6

#: Mean squared residual above which a fit carries a large-residual warning.
_LARGE_RESIDUAL_MSR = 0.25


# ---------------------------------------------------------------------------
# Quadratic epoch fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QuadraticEpochFit:
    """Least-squares quadratic in the log2 epoch factor.

    ``minimizer`` is the continuous argmin: the vertex when the fit is
    convex, otherwise the grid argmin (with ``convex`` cleared).
    ``extrapolated`` flags a minimizer more than one grid step outside the
    fitted abscissa range.
    """

    curvature: float
    slope: float
    intercept: float
    minimizer: float
    k_star: float
    convex: bool
    rss: float
    n_points: int
    extrapolated: bool

    def predict(self, f_k: float) -> float:
        return self.curvature * f_k * f_k + self.slope * f_k + self.intercept


def fit_epoch_quadratic(points: Sequence[tuple[float, float]]) -> QuadraticEpochFit:
    """OLS on the basis (1, f_k, f_k^2); needs >= 3 distinct abscissae."""
    if len({float(x) for x, _ in points}) < 3:
        raise UnderdeterminedError(
            f"need >= 3 distinct epoch factors, got {len({x for x, _ in points})}"
        )
    x = np.asarray([float(p[0]) for p in points])
    y = np.asarray([float(p[1]) for p in points])
    design = np.column_stack([np.ones_like(x), x, x * x])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope, curvature = (float(c) for c in coeffs)
    residuals = y - design @ coeffs
    rss = float(residuals @ residuals)
    if curvature > 0:
        convex = True
        minimizer = -slope / (2.0 * curvature)
    else:
        convex = False
        best = min(zip(y, x))
        minimizer = float(best[1])
    extrapolated = not (x.min() - 1.0 <= minimizer <= x.max() + 1.0)
    return QuadraticEpochFit(
        curvature=curvature,
        slope=slope,
        intercept=intercept,
        minimizer=minimizer,
        k_star=2.0**minimizer,
        convex=convex,
        rss=rss,
        n_points=len(points),
        extrapolated=extrapolated,
    )


# ---------------------------------------------------------------------------
# Epoch-extrapolation model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class KStarModel:
    """Monotone piecewise-linear epoch model with a compute shift exponent.

    ``positions[j]`` is the corpus factor at which the function passes
    through ``levels[j]``; positions are strictly decreasing (the function
    is invertible).
    """

    approach: str
    shift_exponent: float
    levels: tuple[float, ...]
    positions: tuple[float, ...]
    rss: float
    n_points: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.shift_exponent <= 0:
            raise ValidationError("shift exponent must be positive")
        if len(self.levels) != len(self.positions) or len(self.levels) < 2:
            raise ValidationError("need matching levels/positions with >= 2 knots")
        diffs = np.diff(self.positions)
        if not np.all(diffs < 0):
            raise ValidationError("knot positions must be strictly decreasing")


def _segments(
    x: np.ndarray, positions: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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


def _piecewise_eval(x: np.ndarray, positions: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Evaluate the decreasing piecewise-linear function with linear end extension."""
    return _segments(x, positions, levels)[3]


def _pav_increasing(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: closest nondecreasing sequence (unit weights)."""
    sums: list[float] = []
    counts: list[int] = []
    for value in values:
        sums.append(float(value))
        counts.append(1)
        while len(sums) > 1 and sums[-2] / counts[-2] > sums[-1] / counts[-1]:
            s, c = sums.pop(), counts.pop()
            sums[-1] += s
            counts[-1] += c
    return np.repeat([s / c for s, c in zip(sums, counts)], counts)


def _initial_positions(
    x: np.ndarray, y: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Knot positions from isotonic regression of the pooled shifted data.

    Fit a nonincreasing step function to (x, y), collapse it to strictly
    decreasing (value, mean position) blocks, then invert by interpolation
    at the fixed levels. Levels outside the fitted value range extend
    linearly with the edge slope (slope -1 fallback for flat fits).
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    iso = -_pav_increasing(-ys)
    block_vals: list[float] = []
    block_xmean: list[float] = []
    start = 0
    for i in range(1, len(iso) + 1):
        if i == len(iso) or iso[i] != iso[start]:
            block_vals.append(float(iso[start]))
            block_xmean.append(float(xs[start:i].mean()))
            start = i
    vals = np.asarray(block_vals)  # strictly decreasing along ascending x
    xmean = np.asarray(block_xmean)
    if len(vals) == 1:
        return xmean[0] - (levels - vals[0])  # flat fit: fallback slope -1
    # invert: ascending value axis maps to descending position
    positions = np.interp(levels, vals[::-1], xmean[::-1])
    lo, hi = vals.min(), vals.max()
    below = levels < lo
    if np.any(below):
        slope = (xmean[-1] - xmean[-2]) / (vals[-1] - vals[-2])
        positions = np.where(below, xmean[-1] + slope * (levels - vals[-1]), positions)
    above = levels > hi
    if np.any(above):
        slope = (xmean[1] - xmean[0]) / (vals[1] - vals[0])
        positions = np.where(above, xmean[0] + slope * (levels - vals[0]), positions)
    # enforce strict decrease
    for j in range(1, len(positions)):
        if positions[j] > positions[j - 1] - _MIN_KNOT_GAP:
            positions[j] = positions[j - 1] - _MIN_KNOT_GAP
    return positions


def _positions_from_theta(theta: np.ndarray) -> np.ndarray:
    top = theta[0]
    gaps = _MIN_KNOT_GAP + np.exp(theta[1:])
    return np.concatenate([[top], top - np.cumsum(gaps)])


def _theta_from_positions(positions: np.ndarray) -> np.ndarray:
    gaps = -np.diff(positions)
    return np.concatenate(
        [[positions[0]], np.log(np.maximum(gaps - _MIN_KNOT_GAP, 1e-9))]
    )


def _sse_and_grad(
    theta: np.ndarray, x: np.ndarray, y: np.ndarray, levels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sum of squared residuals of the 0-clamped model and its exact gradient in theta.

    On a segment [a, b] with slope s and t = (x - a) / (b - a), the
    prediction moves by -s(1 - t) per unit of a and by -s t per unit of b;
    both vanish where the clamp is active. The knot partials then chain
    through the log-gap parametrization: every position moves one-for-one
    with theta[0], and position i moves by -exp(theta[m]) for every m <= i.
    """
    positions = _positions_from_theta(theta)
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
    grad = np.concatenate([[tail_sums[0]], -np.exp(theta[1:]) * tail_sums[1:]])
    return float(res @ res), grad


def _fit_positions(
    x: np.ndarray, y: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, float]:
    """Monotone-constrained least squares of knot positions at fixed levels.

    Parametrized by the top position plus log gaps so monotonicity holds by
    construction; predictions clamp at level 0. L-BFGS-B gets the exact
    gradient from ``_sse_and_grad``.
    """
    from scipy.optimize import minimize  # only ``fit kstar`` pays for the import

    theta0 = _theta_from_positions(_initial_positions(x, y, levels))
    sse0 = _sse_and_grad(theta0, x, y, levels)[0]
    result = minimize(_sse_and_grad, theta0, args=(x, y, levels), jac=True, method="L-BFGS-B")
    if result.fun <= sse0:
        return _positions_from_theta(result.x), float(result.fun)
    return _positions_from_theta(theta0), sse0


def fit_kstar_model(
    curves: Sequence[tuple[float, float, float]],
    approach: str = APPROACH_MONO_1STAGE,
    h_max: float | None = None,
    *,
    shift_bounds: tuple[float, float] = SHIFT_EXPONENT_BOUNDS,
) -> KStarModel:
    """Fit the epoch model to pooled (compute, corpus factor, log2 k*) points.

    Needs at least two distinct compute budgets; with a single budget the
    shift exponent is unobservable and this raises. Strongly non-monotone
    data still fits but carries a large-residual warning.
    """
    if h_max is None:
        h_max = H_MAX_BY_APPROACH.get(approach, 4.0)
    if h_max < LEVEL_STEP:
        raise ValidationError(f"h_max must be >= {LEVEL_STEP}, got {h_max}")
    ref = reference_constants()
    compute = np.asarray([float(c[0]) for c in curves])
    corpus_factor = np.asarray([float(c[1]) for c in curves])
    log2_kstar = np.asarray([float(c[2]) for c in curves])
    if len(curves) < 4:
        raise UnderdeterminedError(f"need >= 4 points, got {len(curves)}")
    delta = np.log2(compute / ref.compute)
    if len({round(d, 9) for d in delta}) < 2:
        raise UnidentifiableError(
            "curves span a single compute budget; the shift exponent is unidentifiable"
        )
    levels = np.arange(0.0, h_max + LEVEL_STEP / 2, LEVEL_STEP)

    def inner(exponent: float) -> tuple[np.ndarray, float]:
        return _fit_positions(corpus_factor - exponent * delta, log2_kstar, levels)

    lo, hi = shift_bounds
    grid = np.arange(lo, hi + 1e-9, 0.05)
    sse_grid = [inner(a)[1] for a in grid]
    best_idx = int(np.argmin(sse_grid))
    a_lo = grid[max(best_idx - 1, 0)]
    a_hi = grid[min(best_idx + 1, len(grid) - 1)]
    # golden-section refinement on the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    left, right = float(a_lo), float(a_hi)
    c = right - invphi * (right - left)
    d = left + invphi * (right - left)
    f_c, f_d = inner(c)[1], inner(d)[1]
    for _ in range(40):
        if right - left < 1e-4:
            break
        if f_c < f_d:
            right, d, f_d = d, c, f_c
            c = right - invphi * (right - left)
            f_c = inner(c)[1]
        else:
            left, c, f_c = c, d, f_d
            d = left + invphi * (right - left)
            f_d = inner(d)[1]
    candidates = [(sse_grid[best_idx], float(grid[best_idx])), (f_c, c), (f_d, d)]
    sse, exponent = min(candidates)
    positions, sse = inner(exponent)
    warnings: list[str] = []
    if sse / len(curves) > _LARGE_RESIDUAL_MSR:
        warnings.append(
            f"large residuals (mean squared residual {sse / len(curves):.3g}); "
            "data may not be monotone in the shifted corpus factor"
        )
    return KStarModel(
        approach=approach,
        shift_exponent=float(exponent),
        levels=tuple(float(v) for v in levels),
        positions=tuple(float(p) for p in positions),
        rss=float(sse),
        n_points=len(curves),
        warnings=tuple(warnings),
    )


def predict_kstar(
    model: KStarModel,
    compute: float,
    target_tokens: float,
    *,
    round_to_power_of_two: bool = False,
) -> float:
    """Optimal epoch count at (compute, corpus size), clamped to >= 1.

    End segments extrapolate linearly; the clamp handles corpus sizes
    beyond the last knot (ample data needs a single epoch).
    """
    if not (0 < compute < math.inf and 0 < target_tokens < math.inf):
        raise ValidationError(
            "compute and target tokens must be positive and finite, "
            f"got {compute}, {target_tokens}"
        )
    ref = reference_constants()
    shifted = math.log2(target_tokens / ref.target_tokens) - model.shift_exponent * math.log2(
        compute / ref.compute
    )
    level = float(
        _piecewise_eval(
            np.asarray([shifted]), np.asarray(model.positions), np.asarray(model.levels)
        )[0]
    )
    level = max(level, 0.0)
    if round_to_power_of_two:
        level = float(math.floor(level + 0.5))
    return 2.0**level


# ---------------------------------------------------------------------------
# Ratio power law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioPowerLawFit:
    """Shared-exponent power law of loss against the language ratio.

    ``intercepts`` maps each (model scale, total tokens) group to its
    ratio-1 loss level. Scaling one group's losses by a positive constant
    moves only that group's intercept; the exponent is unchanged.
    """

    exponent: float
    intercepts: dict[tuple[float, float], float]
    rss: float
    n_points: int
    group_count: int

    def predict(self, model_scale: float, total_tokens: float, ratio: float) -> float:
        try:
            level = self.intercepts[(model_scale, total_tokens)]
        except KeyError:
            raise ValidationError(
                f"no intercept for group (M={model_scale:.6g}, D={total_tokens:.6g})"
            ) from None
        return level * float(ratio) ** self.exponent


def fit_ratio_power_law(
    points: Iterable[tuple[float, float, float, float]]
) -> RatioPowerLawFit:
    """Closed-form shared-slope regression in log-log space.

    Points are (model scale, total tokens, ratio, loss), grouped by the
    exact (model scale, total tokens) pair. Within-group centering removes
    the intercepts, so the pooled slope is sum of centered cross products
    over sum of centered squares. Every group needs >= 2 distinct ratios.
    """
    groups: dict[tuple[float, float], list[tuple[float, float]]] = {}
    n_points = 0
    for model_scale, total_tokens, ratio, loss in points:
        r = float(ratio)
        if not 0 < r <= 1:
            raise ValidationError(f"ratio must be in (0, 1], got {r}")
        if loss <= 0:
            raise ValidationError(f"loss must be positive, got {loss}")
        groups.setdefault((float(model_scale), float(total_tokens)), []).append(
            (math.log(r), math.log(loss))
        )
        n_points += 1
    degenerate = sorted(
        key for key, values in groups.items() if len({x for x, _ in values}) < 2
    )
    if degenerate:
        described = ", ".join(f"(M={m:.4g}, D={d:.4g})" for m, d in degenerate)
        raise DegenerateGroupError(
            f"{len(degenerate)} group(s) with a single ratio value: {described}"
        )
    if not groups:
        raise UnderdeterminedError("no points to fit")
    numerator = 0.0
    denominator = 0.0
    centered: dict[tuple[float, float], tuple[np.ndarray, np.ndarray, float, float]] = {}
    for key, values in groups.items():
        x = np.asarray([v[0] for v in values])
        y = np.asarray([v[1] for v in values])
        x_mean, y_mean = float(x.mean()), float(y.mean())
        numerator += float(((x - x_mean) * (y - y_mean)).sum())
        denominator += float(((x - x_mean) ** 2).sum())
        centered[key] = (x, y, x_mean, y_mean)
    exponent = numerator / denominator
    intercepts = {}
    rss = 0.0
    for key, (x, y, x_mean, y_mean) in centered.items():
        intercepts[key] = math.exp(y_mean - exponent * x_mean)
        res = y - (y_mean + exponent * (x - x_mean))
        rss += float(res @ res)
    return RatioPowerLawFit(
        exponent=exponent,
        intercepts=intercepts,
        rss=rss,
        n_points=n_points,
        group_count=len(groups),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def kstar_to_wire(model: KStarModel) -> dict:
    return {
        "model_type": "kstar",
        "parameters": {
            "approach": model.approach,
            "shift_exponent": model.shift_exponent,
            "knots": [
                {"h": level, "f_D": position}
                for level, position in zip(model.levels, model.positions)
            ],
        },
        "diagnostics": {
            "rss": model.rss,
            "n_points": model.n_points,
            "warnings": list(model.warnings),
        },
    }


def kstar_from_wire(obj: dict) -> KStarModel:
    params = obj["parameters"]
    knots = params["knots"]
    return KStarModel(
        approach=params["approach"],
        shift_exponent=float(params["shift_exponent"]),
        levels=tuple(float(k["h"]) for k in knots),
        positions=tuple(float(k["f_D"]) for k in knots),
        rss=float(obj["diagnostics"]["rss"]),
        n_points=int(obj["diagnostics"]["n_points"]),
        warnings=tuple(obj["diagnostics"].get("warnings", ())),
    )


def ratio_fit_to_wire(fit: RatioPowerLawFit) -> dict:
    return {
        "model_type": "ratio_power_law",
        "parameters": {
            "exponent": fit.exponent,
            "intercepts": [
                {"M": m, "D": d, "L0": level}
                for (m, d), level in sorted(fit.intercepts.items())
            ],
        },
        "diagnostics": {
            "rss": fit.rss,
            "n_points": fit.n_points,
            "group_count": fit.group_count,
            "warnings": [],
        },
    }


def quadratic_to_wire(fit: QuadraticEpochFit) -> dict:
    return {
        "curvature": fit.curvature,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "f_k_star": fit.minimizer,
        "k_star": fit.k_star,
        "convex": fit.convex,
        "rss": fit.rss,
        "n_points": fit.n_points,
        "extrapolated": fit.extrapolated,
    }
