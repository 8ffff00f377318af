"""The three fitted models and their prediction operations.

1. Quadratic fit of loss against the log2 epoch factor, giving a
   continuous epoch optimum per budget cell.
2. The epoch-extrapolation model: log2 of the optimal epoch count equals a
   monotone decreasing piecewise-linear function of the corpus factor f_D
   shifted by ``a * f_C``, with the compute factor f_C = log2(compute /
   reference). Fitted by an outer 1-D search over the shift exponent (a
   downhill walk on a coarse grid from the exponent of a closed-form
   inverse fit, then golden section) with an inner monotone-constrained
   least-squares fit of the knot positions, initialized from isotonic
   regression of the pooled shifted data. The inner fit runs this module's
   L-BFGS (``_lbfgs``, L-BFGS-B's unbounded defaults) on the exact gradient
   of the squared error, so it needs no finite-difference probes, and the
   seed's bounded least squares is a Lawson-Hanson NNLS (``_nnls``).
3. The ratio power law with one shared exponent across (model, data)
   groups, fitted in closed form by within-group centering in log space.

All three fitters return their files as the dicts that are written:
``fit_epoch_cells`` epochs.json (and ``fit_epoch_quadratic`` one of its cells),
``fit_kstar_model`` kstar.json and ``fit_ratio_power_law`` ratio.json. Each loader
(``*_from_wire``) checks a model file and returns what its readers use.

Regressions run on natural logs internally; reported quantities are base-2
where the grid is base-2.
"""

from __future__ import annotations

import bisect
import math
import sys
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .budget import reference_constants
from .errors import (
    FitError,
    UnderdeterminedError,
    UnidentifiableError,
    ValidationError,
)
from .space import APPROACH_MONO_1STAGE, APPROACH_MULTI_2STAGE, json_field

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that fit, so a command that fits nothing
# (predict_kstar included) starts without it.

#: Default top level of the piecewise-linear epoch model per approach
#: (log2 of the largest optimal epoch count the model resolves).
H_MAX_BY_APPROACH = {APPROACH_MONO_1STAGE: 4.0, APPROACH_MULTI_2STAGE: 3.0}

#: Spacing of the fixed function levels h_j = 0, 0.5, ..., h_max.
LEVEL_STEP = 0.5

#: Largest h_max (2**32 epochs, 65 levels); checked before any levels are built.
H_MAX_LIMIT = 32

#: Search interval for the shift exponent.
SHIFT_EXPONENT_BOUNDS = (0.05, 1.5)

#: Minimum gap between adjacent knot positions (keeps the fit invertible).
_MIN_KNOT_GAP = 1e-6

#: Mean squared residual above which a fit carries a large-residual warning.
_LARGE_RESIDUAL_MSR = 0.25


# ---------------------------------------------------------------------------
# Quadratic epoch fit
# ---------------------------------------------------------------------------


class _LossOverflowError(UnidentifiableError):
    """A quadratic epoch fit whose squared error or coefficients leave the float range."""


def fit_epoch_quadratic(points: Sequence[tuple[float, float]]) -> dict:
    """OLS on the basis (1, f_k, f_k^2); needs >= 3 distinct abscissae.

    Returns an epochs.json cell's fields after its f_C and f_D. ``f_k_star`` is the
    continuous argmin: the vertex when the fit is convex, otherwise the grid argmin
    (with ``convex`` false). ``extrapolated`` flags an f_k_star more than one grid step
    outside the fitted abscissa range.
    """
    import numpy as np

    if len({float(x) for x, _ in points}) < 3:
        raise UnderdeterminedError(
            f"need >= 3 distinct epoch factors, got {len({x for x, _ in points})}"
        )
    x = np.asarray([float(p[0]) for p in points])
    y = np.asarray([float(p[1]) for p in points])
    design = np.column_stack([np.ones_like(x), x, x * x])
    with np.errstate(over="ignore", invalid="ignore"):  # losses near the float limit
        coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
        residuals = y - design @ coeffs
        rss = float(residuals @ residuals)
    intercept, slope, curvature = (float(c) for c in coeffs)
    if not all(map(math.isfinite, (intercept, slope, curvature, rss))):
        raise _LossOverflowError("the squared error or the coefficients leave the float range")
    if curvature > 0:
        convex = True
        minimizer = -slope / (2.0 * curvature)
    else:
        convex = False
        best = min(zip(y, x))
        minimizer = float(best[1])
    try:
        k_star = 2.0**minimizer
    except OverflowError:
        k_star = math.inf
    if not 0.0 < k_star < math.inf:  # a near-flat convex fit can put its vertex anywhere
        raise UnidentifiableError(f"epoch optimum 2**{minimizer} leaves the float range")
    extrapolated = not (x.min() - 1.0 <= minimizer <= x.max() + 1.0)
    return {
        "curvature": curvature,
        "slope": slope,
        "intercept": intercept,
        "f_k_star": minimizer,
        "k_star": k_star,
        "convex": convex,
        "rss": rss,
        "n_points": len(points),
        "extrapolated": extrapolated,
    }


def fit_epoch_cells(cells: dict[tuple[int, int], list[tuple[int, float]]], approach: str) -> dict:
    """epochs.json: the quadratic fit of each (f_C, f_D) cell's (f_k, loss) points.

    A cell with too few epoch values, whose fit leaves the float range, or whose
    optimum does, is skipped with a warning; none fitted raises.
    """
    fits = []
    warnings = []
    for (f_C, f_D), points in cells.items():
        try:
            fits.append({"f_C": f_C, "f_D": f_D} | fit_epoch_quadratic(points))
        except UnderdeterminedError:
            n = len(points)
            warnings.append(f"cell (f_C={f_C}, f_D={f_D}) skipped: {n} epoch value(s) < 3")
        except _LossOverflowError:
            warnings.append(f"cell (f_C={f_C}, f_D={f_D}) skipped: losses overflow the fit")
        except UnidentifiableError:
            warnings.append(f"cell (f_C={f_C}, f_D={f_D}) skipped: epoch optimum out of range")
    if not fits:
        raise UnderdeterminedError("no budget cell has a usable epoch fit")
    return {
        "model_type": "epoch_quadratics",
        "parameters": {"approach": approach, "fits": fits},
        "diagnostics": {
            "rss": sum(fit["rss"] for fit in fits),
            "n_points": sum(fit["n_points"] for fit in fits),
            "warnings": warnings,
        },
    }


# ---------------------------------------------------------------------------
# Epoch-extrapolation model
# ---------------------------------------------------------------------------


def _pav_increasing(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: closest nondecreasing sequence (unit weights)."""
    import numpy as np

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
    linearly with the edge slope; a flat fit, or edge values so close that
    the extended knots would span more than the float range, extends with
    slope -1 instead.
    """
    import numpy as np

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
    inside = np.interp(levels, vals[::-1], xmean[::-1])
    below, above = levels < vals.min(), levels > vals.max()

    def extend(slope_below, slope_above):
        return np.where(below, xmean[-1] + slope_below * (levels - vals[-1]),
                        np.where(above, xmean[0] + slope_above * (levels - vals[0]), inside))

    with np.errstate(over="ignore", invalid="ignore"):
        positions = extend((xmean[-1] - xmean[-2]) / (vals[-1] - vals[-2]),
                           (xmean[1] - xmean[0]) / (vals[1] - vals[0]))
        if not math.isfinite(positions[0] - positions[-1]):
            positions = extend(-1.0, -1.0)
    # enforce strict decrease
    for j in range(1, len(positions)):
        if positions[j] > positions[j - 1] - _MIN_KNOT_GAP:
            positions[j] = positions[j - 1] - _MIN_KNOT_GAP
    return positions


def _positions_from_theta(theta: np.ndarray) -> np.ndarray:
    import numpy as np

    top = theta[0]
    gaps = _MIN_KNOT_GAP + np.exp(theta[1:])
    return np.concatenate([[top], top - np.cumsum(gaps)])


def _theta_from_positions(positions: np.ndarray) -> np.ndarray:
    import numpy as np

    gaps = -np.diff(positions)
    return np.concatenate(
        [[positions[0]], np.log(np.maximum(gaps - _MIN_KNOT_GAP, 1e-9))]
    )


def _sse_and_grad(
    theta: np.ndarray, x: np.ndarray, y: np.ndarray, levels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sum of squared residuals of the 0-clamped model and its exact gradient in theta.

    The knots are taken in ascending order, and x outside them extends the
    end segments linearly. On a segment [a, b] with slope s and
    t = (x - a) / (b - a), the prediction moves by -s(1 - t) per unit of a
    and by -s t per unit of b; both vanish where the clamp is active. The
    knot partials then chain through the log-gap parametrization: every
    position moves one-for-one with theta[0], and position i moves by
    -exp(theta[m]) for every m <= i.
    """
    import numpy as np

    n = len(theta)
    exp_gaps = np.exp(theta[1:])
    xp = np.empty(n)  # _positions_from_theta(theta), ascending
    xp[-1] = theta[0]
    np.subtract(theta[0], np.cumsum(_MIN_KNOT_GAP + exp_gaps), out=xp[-2::-1])
    fp = levels[::-1]  # descending along xp
    # the left knot, clipped to the end segments: clip(searchsorted(xp, x) - 1, 0, n - 2)
    k = np.searchsorted(xp[1:-1], x, side="right")
    k1 = k + 1
    xk, fk = xp[k], fp[k]
    width = xp[k1] - xk
    dx = x - xk
    t = dx / width
    slope = (fp[k1] - fk) / width
    raw = fk + slope * dx
    active = raw > 0.0
    res = y - np.where(active, raw, 0.0)
    weight = -2.0 * res
    grad_ascending = np.bincount(
        k, weight * np.where(active, -slope * (1.0 - t), 0.0), minlength=n
    ) + np.bincount(k1, weight * np.where(active, -slope * t, 0.0), minlength=n)
    tail_sums = np.cumsum(grad_ascending)[::-1]  # sum over positions i >= m
    grad = np.empty(n)
    grad[0] = tail_sums[0]
    np.multiply(-exp_gaps, tail_sums[1:], out=grad[1:])
    return float(res @ res), grad


#: L-BFGS-B's defaults for an unbounded problem: memory, gradient and relative-decrease
#: tolerances, iteration cap, and the line search's ftol, gtol, xtol, largest step and
#: evaluations per search.
_LBFGS_MEMORY = 10
_LBFGS_GTOL = 1e-5
_LBFGS_FTOL = 1e7 * sys.float_info.epsilon
_LBFGS_MAXITER = 15000
_LS_FTOL, _LS_GTOL, _LS_XTOL, _LS_STPMAX, _LS_MAXFEV = 1e-3, 0.9, 0.1, 1e10, 20


class _Solve(NamedTuple):
    """An ``_lbfgs`` result: the point, its value, and the solver's counts."""

    x: np.ndarray
    f: float
    nfev: int
    nit: int
    converged: bool


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded trial step of the Moré–Thuente line search (MINPACK-2 ``dcstep``).

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the other end of the
    interval, (stp, fp, dp) the newest trial; each d is the directional derivative.
    Returns the updated (stx, fx, dx, sty, fy, dy, brackt) and the next trial step.
    Where MINPACK-2's arithmetic would give nan (a degenerate cubic, or an end whose
    value is not finite), the step bisects the interval instead.
    """
    sgnd = dp * math.copysign(1.0, dx)
    bracketing = fp > fx or sgnd < 0.0
    try:
        if fp > fx:  # a higher value: the minimum is bracketed
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = math.copysign(s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s)),
                                  stp - stx)
            r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
            stpc = stx + r * (stp - stx)
            stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
            stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        elif sgnd < 0.0:  # a lower value, derivatives of opposite sign: bracketed
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = math.copysign(s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s)),
                                  stx - stp)
            r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
            stpc = stp + r * (stx - stp)
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        elif abs(dp) < abs(dx):  # a lower value, same sign, the derivative shrinks
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = math.copysign(
                s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s))), stx - stp
            )
            r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
            if r < 0.0 and gamma != 0.0:
                stpc = stp + r * (stx - stp)
            else:
                stpc = stpmax if stp > stx else stpmin
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            if brackt:
                stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
                bound = stp + 0.66 * (sty - stp)
                stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
            else:
                stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
                stpf = max(stpmin, min(stpmax, stpf))
        elif brackt:  # a lower value, same sign, the derivative does not shrink
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = math.copysign(s * math.sqrt((theta / s) ** 2 - (dy / s) * (dp / s)),
                                  sty - stp)
            r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
            stpf = stp + r * (sty - stp)
        else:
            stpf = stpmax if stp > stx else stpmin
    except (ZeroDivisionError, ValueError):  # where MINPACK-2's arithmetic gives nan
        stpf = math.nan
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    if not math.isfinite(stpf):
        stpf = stx + 0.5 * (sty - stx)
    return stx, fx, dx, sty, fy, dy, brackt or bracketing, stpf


def _line_search(fun, x, f0, gd0, d, stp):
    """Moré–Thuente line search (MINPACK-2 ``dcsrch``) from x along the descent direction d.

    Looks for a step with sufficient decrease (ftol) and curvature (gtol), as
    L-BFGS-B's ``lnsrlb`` drives it. A trial whose value or slope is not finite
    counts as too long: the interval closes there and the next trial bisects it.
    Returns the number of evaluations and the accepted (step, x, f, grad, slope),
    or None when ``_LS_MAXFEV`` evaluations find no acceptable step.
    """
    gtest = _LS_FTOL * gd0
    brackt, stage = False, 1
    width, width1 = _LS_STPMAX, 2.0 * _LS_STPMAX
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = gd0
    stmin, stmax = 0.0, 5.0 * stp
    for nfev in range(1, _LS_MAXFEV + 1):
        xt = x + stp * d
        f, g = fun(xt)
        gd = float(g @ d)
        ftest = f0 + stp * gtest
        if stage == 1 and f <= ftest and gd >= 0.0:
            stage = 2
        if (
            (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax))
            or (stp == _LS_STPMAX and f <= ftest and gd <= gtest)
            or (stp == 0.0 and (f > ftest or gd >= gtest))
            or (f <= ftest and abs(gd) <= _LS_GTOL * -gd0)
        ):  # a warning or convergence: dcsrch stops at this step
            return nfev, (stp, xt, f, g, gd)
        if not (math.isfinite(f) and math.isfinite(gd)):  # too long
            brackt, sty, fy, gy = True, stp, f, gd
            stp = stx + 0.5 * (sty - stx)
        elif stage == 1 and ftest < f <= fx:  # the modified function f - stp * gtest
            stx, fxm, gxm, sty, fym, gym, brackt, stp = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, gd - gtest, brackt, stmin, stmax,
            )
            fx, gx = fxm + stx * gtest, gxm + gtest
            fy, gy = fym + sty * gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, brackt, stp = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, gd, brackt, stmin, stmax
            )
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _LS_STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax):
            stp = stx  # no further progress: try the best step
    return _LS_MAXFEV, None


def _lbfgs(fun, x0: np.ndarray) -> _Solve:
    """Minimize ``fun`` (returning the value and its gradient) from x0 by L-BFGS.

    With no bounds L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) is plain L-BFGS,
    and this follows its defaults: the two-loop direction over the last
    ``_LBFGS_MEMORY`` pairs with H0 = (s.y / y.y) I (Nocedal & Wright, Alg. 7.4),
    a first step of 1/|g|, the Moré–Thuente line search, a pair skipped unless
    y.s > eps * (-g.d * step), and one restart from steepest descent after a
    failed search. It stops when |g|_inf <= ``_LBFGS_GTOL`` or the value falls by
    at most ``_LBFGS_FTOL`` relative; either counts as converged. The value never
    rises, and a start whose value is not finite is returned as it is.
    """
    import numpy as np

    x = x0
    f, g = fun(x)
    nfev, nit = 1, 0
    if not math.isfinite(f) or not np.isfinite(g).all():
        return _Solve(x, f, nfev, nit, False)
    if float(np.max(np.abs(g))) <= _LBFGS_GTOL:
        return _Solve(x, f, nfev, nit, True)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / y.s), oldest first
    gamma = 1.0
    while nit < _LBFGS_MAXITER:
        q = -g
        alphas = []
        for s, yv, rho in reversed(pairs):
            alpha = rho * float(s @ q)
            q -= alpha * yv
            alphas.append(alpha)
        q *= gamma
        for (s, yv, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * float(yv @ q)) * s
        d = q
        gd = float(g @ d)
        stp = 1.0 / math.sqrt(float(d @ d)) if nit == 0 else 1.0
        evaluations, found = _line_search(fun, x, f, gd, d, stp) if gd < 0.0 else (0, None)
        nfev += evaluations
        if found is None:  # no acceptable step: restart once from steepest descent
            if not pairs:
                return _Solve(x, f, nfev, nit, False)
            pairs.clear()
            gamma = 1.0
            continue
        stp, x_new, f_new, g_new, gd_new = found
        nit += 1
        f_old, yv = f, g_new - g
        x, f, g = x_new, f_new, g_new
        if float(np.max(np.abs(g))) <= _LBFGS_GTOL:
            return _Solve(x, f, nfev, nit, True)
        if f_old - f <= _LBFGS_FTOL * max(abs(f_old), abs(f), 1.0):
            return _Solve(x, f, nfev, nit, True)
        ys = (gd_new - gd) * stp
        if ys > sys.float_info.epsilon * -gd * stp:
            if len(pairs) == _LBFGS_MEMORY:
                pairs.pop(0)
            pairs.append((stp * d, yv, 1.0 / ys))
            gamma = ys / float(yv @ yv)
    return _Solve(x, f, nfev, nit, False)


def _fit_positions(x: np.ndarray, y: np.ndarray, levels: np.ndarray) -> _Solve:
    """Monotone-constrained least squares of knot positions at fixed levels.

    Parametrized by the top position plus log gaps so monotonicity holds by
    construction; predictions clamp at level 0. ``_lbfgs`` (L-BFGS, after
    Byrd, Lu, Nocedal & Zhu 1995, with the Moré–Thuente 1994 line search) gets
    the exact gradient from ``_sse_and_grad``. Returns the solve with its x
    mapped to the knot positions.
    """
    import numpy as np

    theta0 = _theta_from_positions(_initial_positions(x, y, levels))
    # a line-search step whose log gaps overflow exp, or whose knots collapse onto one
    # float (a zero-width segment), scores inf or nan and is not taken; a start that
    # overflows scores inf, and fit_kstar_model rejects a best solve whose squared error
    # or knots are not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        solve = _lbfgs(lambda theta: _sse_and_grad(theta, x, y, levels), theta0)
        return solve._replace(x=_positions_from_theta(solve.x))


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |a z - b| over z >= 0, by Lawson & Hanson's active-set method (1974, ch. 23)."""
    import numpy as np

    n = a.shape[1]
    tol = 10.0 * sys.float_info.epsilon * np.abs(a).sum(axis=0).max() * max(a.shape)
    z = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        w = a.T @ (b - a @ z)  # the negative gradient
        if passive.all() or w[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            trial = np.zeros(n)
            trial[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (trial[passive] > 0.0).all():
                z = trial
                break
            # step from z toward the trial until the first passive variable reaches 0
            blocked = np.flatnonzero(passive & (trial <= 0.0))
            ratios = z[blocked] / (z[blocked] - trial[blocked])
            z = z + ratios.min() * (trial - z)
            passive[blocked[np.argmin(ratios)]] = False
            passive &= z > tol
            z[~passive] = 0.0
    return z


def _inverse_seed(
    corpus_factor: np.ndarray, compute_factor: np.ndarray, log2_kstar: np.ndarray,
    levels: np.ndarray,
) -> float:
    """Shift exponent of the inverted epoch model, fitted by bounded linear least squares.

    The model inverts to f_D = a * f_C + sum_j B_j(log2 k*) p_j, where the B_j
    are the hat functions on the fixed levels, extended linearly past both ends.
    With p_j = p_0 - sum_{m<=j} d_m the unknowns (a, p_0, d_1, ..., d_{n-1}) enter
    linearly through the columns [f_C, 1, -sum_{j>=m} B_j], under the bounds
    a in SHIFT_EXPONENT_BOUNDS and d_m >= _MIN_KNOT_GAP. Centering the columns
    and the target removes the free p_0, and shifting by the lower bounds leaves
    a nonnegative least squares problem for ``_nnls`` (Lawson & Hanson 1974). The
    problem is convex, so an a above the upper bound without it puts the bounded
    optimum on that bound. It measures errors along f_D, not along log2 k*, so
    its a seeds the forward search and is not the answer. Returns nan when the
    data overflow the design or the least squares fail.
    """
    import numpy as np

    n = len(levels)
    lo, hi = SHIFT_EXPONENT_BOUNDS
    lower = np.concatenate([[lo], np.full(n - 1, _MIN_KNOT_GAP)])
    with np.errstate(all="ignore"):
        k = np.clip(np.searchsorted(levels, log2_kstar, side="right") - 1, 0, n - 2)[:, None]
        t = (log2_kstar[:, None] - levels[k]) / LEVEL_STEP
        # sum_{j>=m} B_j(y) on segment k: 1 for m <= k, t for m = k + 1, 0 beyond
        m = np.arange(1, n)
        tail = np.where(m <= k, 1.0, np.where(m == k + 1, t, 0.0))
        design = np.column_stack([compute_factor, -tail])
        design -= design.mean(axis=0)
        target = corpus_factor - corpus_factor.mean() - design @ lower
        if not (np.isfinite(design).all() and np.isfinite(target).all()):
            return math.nan  # LAPACK would print to stderr before failing
        try:
            return min(float(_nnls(design, target)[0] + lo), hi)
        except np.linalg.LinAlgError:
            return math.nan


def fit_kstar_model(
    cells: Sequence[tuple[float, float, float]],
    approach: str = APPROACH_MONO_1STAGE,
    h_max: float | None = None,
) -> dict:
    """kstar.json: the epoch model fitted to epochs.json's pooled (f_C, f_D, log2 k*) cells.

    log2 k* is a piecewise-linear function of the shifted corpus factor
    f_D - a * f_C. Needs at least two distinct compute factors f_C; with a
    single one the shift exponent a is unobservable and this raises. Every
    value must be finite, and a fit whose best squared error overflows, or
    whose best knots are not finite and strictly decreasing, raises FitError.
    Strongly non-monotone data still fits but carries a large-residual warning.

    The shift exponent is searched on a 0.05 grid over SHIFT_EXPONENT_BOUNDS,
    starting at the grid point nearest ``_inverse_seed`` (the middle of the grid
    when the seed is not finite). The walk solves that point and its neighbours
    and moves to the lowest until neither neighbour is lower, ordering solves
    by (sse, exponent); a golden section then refines the local minimum's
    bracket. No exponent is solved twice, and the model is the best solve of
    the grid minimum and the golden section's last two points. Its diagnostics
    carry the solves' L-BFGS counts (``_SOLVE_COUNTS``), summed.
    """
    import numpy as np

    if h_max is None:
        h_max = H_MAX_BY_APPROACH.get(approach, 4.0)
    if not LEVEL_STEP <= h_max <= H_MAX_LIMIT:
        raise ValidationError(
            f"h_max must be finite and in [{LEVEL_STEP}, {H_MAX_LIMIT}], got {h_max}"
        )
    for cell in cells:
        if not all(map(math.isfinite, cell)):
            raise ValidationError(f"k* curve points must be finite, got {tuple(cell)}")
    if len(cells) < 4:
        raise UnderdeterminedError(f"need >= 4 points, got {len(cells)}")
    compute_factor, corpus_factor, log2_kstar = np.asarray(cells, dtype=float).T
    if len(set(compute_factor.tolist())) < 2:
        raise UnidentifiableError(
            "curves span a single compute budget; the shift exponent is unidentifiable"
        )
    levels = np.arange(0.0, h_max + LEVEL_STEP / 2, LEVEL_STEP)
    solves: dict[float, _Solve] = {}

    def solve(exponent: float) -> _Solve:
        """The knot fit at one shift exponent, solved on first use."""
        if exponent not in solves:
            x = corpus_factor - exponent * compute_factor
            solves[exponent] = _fit_positions(x, log2_kstar, levels)
        return solves[exponent]

    lo, hi = SHIFT_EXPONENT_BOUNDS
    grid = np.arange(lo, hi + 1e-9, 0.05).tolist()
    seed = _inverse_seed(corpus_factor, compute_factor, log2_kstar, levels)
    nearest = min(range(len(grid)), key=lambda i: abs(grid[i] - seed))
    best_idx = nearest if math.isfinite(seed) else len(grid) // 2
    for _ in grid:  # a downhill walk visits each grid point at most once
        near = range(max(best_idx - 1, 0), min(best_idx + 2, len(grid)))
        lowest = min(near, key=lambda i: (solve(grid[i]).f, grid[i]))
        if lowest == best_idx:
            break
        best_idx = lowest
    # golden-section refinement on the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    left, right = grid[max(best_idx - 1, 0)], grid[min(best_idx + 1, len(grid) - 1)]
    c, d = right - invphi * (right - left), left + invphi * (right - left)
    for _ in range(40):
        if right - left < 1e-4:
            break
        if solve(c).f < solve(d).f:
            right, d = d, c
            c = right - invphi * (right - left)
        else:
            left, c = c, d
            d = left + invphi * (right - left)
    # the best of the three candidates, ties to the lower exponent
    exponent = min((grid[best_idx], c, d), key=lambda a: (solve(a).f, a))
    sse, positions = solves[exponent].f, solves[exponent].x
    if not math.isfinite(sse):
        raise FitError(f"the squared error of the best fit is not finite ({sse})")
    # knots without data can drift until their gaps fall below float resolution
    if not (np.isfinite(positions).all() and (positions[1:] < positions[:-1]).all()):
        raise FitError("the knot positions of the best fit are not finite and strictly decreasing")
    warnings: list[str] = []
    if sse / len(cells) > _LARGE_RESIDUAL_MSR:
        warnings.append(
            f"large residuals (mean squared residual {sse / len(cells):.3g}); "
            "data may not be monotone in the shifted corpus factor"
        )
    return {
        "model_type": "kstar",
        "parameters": {
            "approach": approach,
            "shift_exponent": exponent,
            "knots": [{"h": float(h), "f_D": float(p)} for h, p in zip(levels, positions)],
        },
        "diagnostics": {
            "rss": sse,
            "n_points": len(cells),
            "solves": len(solves),
            "nfev": sum(s.nfev for s in solves.values()),
            "nit": sum(s.nit for s in solves.values()),
            "converged": sum(s.converged for s in solves.values()),
            "warnings": warnings,
        },
    }


def predict_kstar(
    model: tuple[float, Sequence[float], Sequence[float]],
    compute: float,
    target_tokens: float,
    *,
    round_to_power_of_two: bool = False,
) -> float:
    """Optimal epoch count at (compute, corpus size), clamped to >= 1.

    ``model`` is what ``kstar_from_wire`` returns: the shift exponent and the knots'
    levels and positions. End segments extrapolate linearly; the clamp handles corpus
    sizes beyond the last knot (ample data needs a single epoch).
    """
    if not (0 < compute < math.inf and 0 < target_tokens < math.inf):
        raise ValidationError(
            "compute and target tokens must be positive and finite, "
            f"got {compute}, {target_tokens}"
        )
    ref = reference_constants()
    corpus, scale = target_tokens / ref.target_tokens, compute / ref.compute
    if not (corpus and scale):  # a subnormal value divided by the reference is 0
        raise ValidationError(f"compute and target tokens too small to scale, got {compute}, "
                              f"{target_tokens}")
    shift_exponent, levels, positions = model
    shifted = math.log2(corpus) - shift_exponent * math.log2(scale)
    # _sse_and_grad's segment evaluation for one point: the same float operations in order
    xp = positions[::-1]  # ascending
    fp = levels[::-1]
    k = min(max(bisect.bisect_right(xp, shifted) - 1, 0), len(xp) - 2)
    width = xp[k + 1] - xp[k]
    slope = (fp[k + 1] - fp[k]) / width
    level = max(fp[k] + slope * (shifted - xp[k]), 0.0)
    if round_to_power_of_two and math.isfinite(level):
        level = float(math.floor(level + 0.5))
    if not level < 1024:  # 2.0**1024 leaves the float range; NaN fails this test too
        raise ValidationError(f"predicted k* 2**{level:.4g} leaves the float range")
    return 2.0**level


# ---------------------------------------------------------------------------
# Ratio power law
# ---------------------------------------------------------------------------


def fit_ratio_power_law(points: Iterable[tuple[float, float, float, float]]) -> dict:
    """ratio.json: a closed-form shared-slope regression in log-log space.

    Points are (model scale, total tokens, ratio, loss), grouped by the
    exact (model scale, total tokens) pair. Within-group centering removes
    the intercepts, so the pooled slope is sum of centered cross products
    over sum of centered squares, summed in sorted group order. Each group's
    intercept L0 is its ratio-1 loss level, so scaling one group's losses by a
    positive constant moves only that group's L0. A group with a single ratio
    value is dropped with a warning; none left raises, and so does an L0 that
    leaves the float range.
    """
    import numpy as np

    groups: dict[tuple[float, float], list[tuple[float, float]]] = {}
    for model_scale, total_tokens, ratio, loss in points:
        r = float(ratio)
        if not 0 < r <= 1:
            raise ValidationError(f"ratio must be in (0, 1], got {r}")
        if loss <= 0:
            raise ValidationError(f"loss must be positive, got {loss}")
        groups.setdefault((float(model_scale), float(total_tokens)), []).append(
            (math.log(r), math.log(loss))
        )
    warnings = []
    numerator = 0.0
    denominator = 0.0
    centered: dict[tuple[float, float], tuple[np.ndarray, np.ndarray, float, float]] = {}
    for key in sorted(groups):
        values = groups[key]
        if len({x for x, _ in values}) < 2:
            warnings.append(f"group (M={key[0]:.6g}, D={key[1]:.6g}) dropped: single ratio value")
            continue
        x = np.asarray([v[0] for v in values])
        y = np.asarray([v[1] for v in values])
        x_mean, y_mean = float(x.mean()), float(y.mean())
        numerator += float(((x - x_mean) * (y - y_mean)).sum())
        denominator += float(((x - x_mean) ** 2).sum())
        centered[key] = (x, y, x_mean, y_mean)
    if not centered:
        raise UnderdeterminedError("no (model scale, total tokens) group has two distinct ratios")
    exponent = numerator / denominator
    intercepts = []
    rss = 0.0
    for (m, d), (x, y, x_mean, y_mean) in centered.items():
        try:
            level = math.exp(y_mean - exponent * x_mean)
        except OverflowError:
            level = math.inf
        if not 0.0 < level < math.inf:
            raise UnidentifiableError(
                f"ratio-1 loss of group (M={m:.6g}, D={d:.6g}) leaves the float range"
            )
        intercepts.append({"M": m, "D": d, "L0": level})
        res = y - (y_mean + exponent * (x - x_mean))
        rss += float(res @ res)
    return {
        "model_type": "ratio_power_law",
        "parameters": {"exponent": exponent, "intercepts": intercepts},
        "diagnostics": {
            "rss": rss,
            "n_points": sum(len(x) for x, *_ in centered.values()),
            "group_count": len(centered),
            "warnings": warnings,
        },
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _sections(obj: dict, model_type: str) -> tuple[dict, dict]:
    """A model file's (parameters, diagnostics) objects, once its model_type is ``model_type``."""
    if obj["model_type"] != model_type:
        raise ValueError(f"expected model_type {model_type!r}, got {obj['model_type']!r}")
    return json_field(obj, "parameters", dict), json_field(obj, "diagnostics", dict)


def _objects(obj: dict, key: str) -> list[dict]:
    """``obj[key]``, which must be a JSON list of objects."""
    entries = json_field(obj, key, list)
    for i, entry in enumerate(entries):
        if type(entry) is not dict:
            raise ValueError(f"{key}[{i}] must be an object, got {entry!r}")
    return entries


def _approach(params: dict) -> str:
    """A model file's approach, which must be one ``H_MAX_BY_APPROACH`` knows."""
    approach = json_field(params, "approach", str)
    if approach not in H_MAX_BY_APPROACH:
        raise ValueError(f"approach must be one of {sorted(H_MAX_BY_APPROACH)}, got {approach!r}")
    return approach


def _diagnostics(diagnostics: dict, *counts: str) -> dict:
    """The rss, n_points and other ``counts`` of a model file (or an epoch cell).

    No number may be negative, and the warnings must be a list of strings.
    """
    fields = {"rss": json_field(diagnostics, "rss", float)}
    fields |= {key: json_field(diagnostics, key, int) for key in ("n_points", *counts)}
    for key, value in fields.items():
        if value < 0:
            raise ValueError(f"{key} must be >= 0, got {value!r}")
    warnings = diagnostics.get("warnings", [])
    if type(warnings) is not list or not all(type(w) is str for w in warnings):
        raise ValueError(f"warnings must be a list of strings, got {warnings!r}")
    return fields


def _positive(obj: dict, key: str) -> float:
    """A finite JSON number that must be greater than 0."""
    value = json_field(obj, key, float)
    if value <= 0:
        raise ValueError(f"{key} must be positive, got {value!r}")
    return value


#: The L-BFGS counts (summed over the fit's solves) a k* model file's diagnostics may carry.
_SOLVE_COUNTS = ("solves", "nfev", "nit", "converged")


def kstar_from_wire(obj: dict) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """The shift exponent and the knots' levels and positions of a k* model file.

    The shift exponent is positive, levels strictly increase and positions strictly
    decrease (the model is invertible). The solve counts are optional, but come all
    together or not at all.
    """
    params, diagnostics = _sections(obj, "kstar")
    knots = _objects(params, "knots")
    counts = _SOLVE_COUNTS if any(key in diagnostics for key in _SOLVE_COUNTS) else ()
    fields = _diagnostics(diagnostics, *counts)
    if counts and fields["converged"] > fields["solves"]:
        raise ValueError(
            f"converged must be <= solves, got {fields['converged']} > {fields['solves']}"
        )
    _approach(params)
    shift_exponent = json_field(params, "shift_exponent", float)
    levels = tuple(json_field(k, "h", float) for k in knots)
    positions = tuple(json_field(k, "f_D", float) for k in knots)
    if shift_exponent <= 0:
        raise ValueError(f"shift exponent must be finite and positive, got {shift_exponent}")
    if len(knots) < 2:
        raise ValueError("need matching levels/positions with >= 2 knots")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("knot levels must be finite and strictly increasing")
    if any(a <= b for a, b in zip(positions, positions[1:])):
        raise ValueError("knot positions must be finite and strictly decreasing")
    return shift_exponent, levels, positions


def ratio_fit_from_wire(obj: dict) -> tuple[float, dict[tuple[float, float], float]]:
    """The exponent and the {(M, D): L0} intercepts of a ratio_power_law model file.

    No (M, D) group is listed twice.
    """
    params, diagnostics = _sections(obj, "ratio_power_law")
    exponent = json_field(params, "exponent", float)
    intercepts = {}
    for entry in _objects(params, "intercepts"):
        m, d, level = (_positive(entry, key) for key in ("M", "D", "L0"))
        if (m, d) in intercepts:
            raise ValueError(f"group (M={m:.6g}, D={d:.6g}) is listed twice")
        intercepts[m, d] = level
    _diagnostics(diagnostics, "group_count")
    return exponent, intercepts


#: The JSON type of each field of an epochs.json cell after its f_C and f_D, in file order.
_EPOCH_CELL = {
    "curvature": float, "slope": float, "intercept": float, "f_k_star": float, "k_star": float,
    "convex": bool, "rss": float, "n_points": int, "extrapolated": bool,
}


def epoch_fits_from_wire(obj: dict) -> tuple[str, list[dict]]:
    """The approach and the cells of an epoch_quadratics model file.

    Each cell is its f_C, f_D and ``_EPOCH_CELL`` fields, each read as its JSON type,
    and no (f_C, f_D) is listed twice. A cell's C and D_T must stay finite and nonzero,
    as a derived setup's do. Its k_star must equal 2**f_k_star, as
    ``fit_epoch_quadratic`` derives it, and be a positive, finite float.
    """
    ref = reference_constants()
    params, diagnostics = _sections(obj, "epoch_quadratics")
    approach = _approach(params)
    _diagnostics(diagnostics)
    cells = {}
    for entry in _objects(params, "fits"):
        f_C, f_D = json_field(entry, "f_C", int), json_field(entry, "f_D", int)
        if (f_C, f_D) in cells:
            raise ValueError(f"cell (f_C={f_C}, f_D={f_D}) is listed twice")
        try:
            budgets = (math.ldexp(ref.compute, f_C), math.ldexp(ref.target_tokens, f_D))
        except OverflowError:
            budgets = (0.0,)
        if 0.0 in budgets:
            raise ValueError(f"cell (f_C={f_C}, f_D={f_D}) leaves the float range")
        _diagnostics(entry)
        cell = {"f_C": f_C, "f_D": f_D}
        cell |= {key: json_field(entry, key, kind) for key, kind in _EPOCH_CELL.items()}
        try:
            power = 2.0 ** cell["f_k_star"]
        except OverflowError:
            power = math.inf
        if not (0.0 < power < math.inf and cell["k_star"] == power):
            raise ValueError(
                f"cell (f_C={f_C}, f_D={f_D}): k_star must be 2**f_k_star, positive and "
                f"finite; got k_star={cell['k_star']!r} for f_k_star={cell['f_k_star']!r}"
            )
        cells[f_C, f_D] = cell
    return approach, list(cells.values())
