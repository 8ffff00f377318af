"""The three fitted models and their prediction operations.

1. Quadratic fit of loss against the log2 epoch factor, giving a
   continuous epoch optimum per budget cell.
2. The epoch-extrapolation model: log2 of the optimal epoch count equals a
   monotone decreasing piecewise-linear function of the corpus factor f_D
   shifted by ``a * f_C``, with the compute factor f_C = log2(compute /
   reference). Fitted by an outer 1-D search over the shift exponent (a
   downhill walk on a coarse grid from the median shift between budgets,
   ``_shift_seed``, then five halvings of the bracket around the walk's
   grid minimum, ``_REFINE_STEPS``) with an inner monotone-constrained
   least-squares fit of the knot positions, initialized from isotonic
   regression of the pooled shifted data. The inner fit runs this module's
   L-BFGS (``_lbfgs``, L-BFGS-B's unbounded defaults) on the exact gradient
   of the squared error, so it needs no finite-difference probes. This model works on
   float lists in plain Python: its vectors have about ten entries, where
   numpy's per-call cost outweighs the arithmetic.
3. The ratio power law with one shared exponent across (model, data)
   groups, fitted in plain Python by within-group centering in log space.

All three fitters return their files as the dicts that are written:
``fit_epoch_cells`` epochs.json (and ``fit_epoch_quadratic`` one of its cells),
``fit_kstar_model`` kstar.json and ``fit_ratio_power_law`` ratio.json. Each loader
(``*_from_wire``) checks a model file and returns what its readers use, and
``epoch_optima``, ``predict_kstar``, ``kstar_extrapolation`` and ``predict_ratio_loss`` evaluate it.

Regressions run on natural logs internally; reported quantities are base-2
where the grid is base-2.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from typing import Iterable, NamedTuple, Sequence

from .budget import cell_budgets, reference_constants
from .errors import FitError, UnderdeterminedError, UnidentifiableError, ValidationError
from .space import APPROACH_MONO_1STAGE, APPROACH_MULTI_2STAGE, json_field

# numpy is imported only inside fit_epoch_quadratic (lstsq): only `fit epochs` loads it.

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

#: The knot seed extends no steeper than this many times the isotonic fit's overall secant.
_SEED_SLOPE_CAP = 4.0


# ---------------------------------------------------------------------------
# Quadratic epoch fit
# ---------------------------------------------------------------------------


class _LossOverflowError(UnidentifiableError):
    """A quadratic epoch fit whose squared error or coefficients leave the float range."""


#: The JSON type of each field of an epochs.json cell after its f_C and f_D, in file order.
_EPOCH_CELL = {
    "curvature": float, "slope": float, "intercept": float, "f_k_star": float, "k_star": float,
    "convex": bool, "rss": float, "n_points": int, "extrapolated": bool,
}


def fit_epoch_quadratic(points: Sequence[tuple[float, float]]) -> dict:
    """OLS on the basis (1, f_k, f_k^2); needs >= 3 distinct abscissae.

    Returns an epochs.json cell's ``_EPOCH_CELL`` fields. ``f_k_star`` is the
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
    return dict(zip(_EPOCH_CELL, (curvature, slope, intercept, minimizer, k_star, convex, rss,
                                  len(points), extrapolated), strict=True))


def fit_epoch_cells(cells: dict[tuple[int, int], list[tuple[int, float]]], approach: str) -> dict:
    """epochs.json: the quadratic fit of each (f_C, f_D) cell's (f_k, loss) points.

    A cell with too few epoch values, whose fit leaves the float range, or whose
    optimum does, is skipped with a warning; none fitted raises. So does an
    approach that ``H_MAX_BY_APPROACH`` lacks, with ValidationError.
    """
    _approach(approach)
    fits, warnings = [], []
    skipped = {}  # shortfall -> the cells skipped for it, in cell order
    for (f_C, f_D), points in cells.items():
        cell = f"(f_C={f_C}, f_D={f_D})"
        try:
            fits.append({"f_C": f_C, "f_D": f_D} | fit_epoch_quadratic(points))
            continue
        except UnderdeterminedError:
            shortfall, why = "fewer than 3 distinct f_k", f"{len(points)} epoch value(s) < 3"
        except _LossOverflowError:
            shortfall, why = "losses that overflow the fit", "losses overflow the fit"
        except UnidentifiableError:
            shortfall, why = "an epoch optimum out of range", "epoch optimum out of range"
        skipped.setdefault(shortfall, []).append(cell)
        warnings.append(f"cell {cell} skipped: {why}")
    if not fits:
        found = "".join(f", {len(c)} had {s}, first {c[0]}" for s, c in skipped.items())
        raise UnderdeterminedError(f"no budget cell has a usable epoch fit: {len(cells)} "
                                   f"(f_C, f_D) cell(s) had data{found}")
    return {
        "model_type": "epoch_quadratics",
        "parameters": {"approach": approach, "fits": fits},
        "diagnostics": {
            "rss": _sum(fit["rss"] for fit in fits),
            "n_points": sum(fit["n_points"] for fit in fits),
            "warnings": warnings,
        },
    }


def epoch_optima(fits: Iterable[dict]) -> list[tuple]:
    """epoch_optima.csv's rows: each loaded cell's C, D_T, f_k_star, k_star and convex."""
    return [(*cell_budgets(fit["f_C"], fit["f_D"]), fit["f_k_star"], fit["k_star"], fit["convex"])
            for fit in fits]


# ---------------------------------------------------------------------------
# Epoch-extrapolation model
# ---------------------------------------------------------------------------


def _pav_increasing(values: Sequence[float]) -> list[float]:
    """Pool-adjacent-violators: closest nondecreasing sequence (unit weights)."""
    sums: list[float] = []
    counts: list[int] = []
    for value in values:
        sums.append(value)
        counts.append(1)
        while len(sums) > 1 and sums[-2] / counts[-2] > sums[-1] / counts[-1]:
            s, c = sums.pop(), counts.pop()
            sums[-1] += s
            counts[-1] += c
    return [s / c for s, c in zip(sums, counts) for _ in range(c)]


def _initial_positions(
    x: Sequence[float], y: Sequence[float], levels: Sequence[float]
) -> list[float]:
    """Knot positions from isotonic regression of the pooled shifted data.

    Fit a nonincreasing step function to (x, y), collapse it to strictly
    decreasing (value, mean position) blocks, then invert by interpolation
    at the fixed levels. Levels outside the fitted value range extend
    linearly with the edge slope, capped in magnitude at ``_SEED_SLOPE_CAP``
    times the overall secant (first to last block): two edge blocks whose
    values differ by ~1e-13 give a slope ~1e13, which would seed the outer
    knots ~1e12 away from data that span a few units, where the first line
    search finds no acceptable step and the solve stops unconverged at its
    seed. A flat fit, or edge values so close that the extended knots would
    span more than the float range, extends with slope -1 instead.
    """
    order = sorted(range(len(x)), key=x.__getitem__)  # stable: equal x keep their order
    xs = [x[i] for i in order]
    iso = [-v for v in _pav_increasing([-y[i] for i in order])]
    vals: list[float] = []  # strictly decreasing along ascending x
    xmean: list[float] = []
    start = 0
    for i in range(1, len(iso) + 1):
        if i == len(iso) or iso[i] != iso[start]:
            vals.append(iso[start])
            xmean.append(_sum(xs[start:i]) / (i - start))
            start = i
    if len(vals) == 1:
        return [xmean[0] - (level - vals[0]) for level in levels]  # flat fit: fallback slope -1
    # invert: the ascending value axis maps to descending positions
    up_vals, up_xmean = vals[::-1], xmean[::-1]

    def inside(level: float) -> float:  # linear interpolation within the value range
        j = bisect.bisect_right(up_vals, level) - 1
        if j == len(up_vals) - 1 or up_vals[j] == level:
            return up_xmean[j]
        slope = (up_xmean[j + 1] - up_xmean[j]) / (up_vals[j + 1] - up_vals[j])
        return slope * (level - up_vals[j]) + up_xmean[j]

    def extend(slope_below: float, slope_above: float) -> list[float]:
        return [
            xmean[-1] + slope_below * (level - vals[-1]) if level < vals[-1]
            else xmean[0] + slope_above * (level - vals[0]) if level > vals[0]
            else inside(level)
            for level in levels
        ]

    cap = _SEED_SLOPE_CAP * (xmean[-1] - xmean[0]) / (vals[-1] - vals[0])  # both slopes < 0
    positions = extend(max((xmean[-1] - xmean[-2]) / (vals[-1] - vals[-2]), cap),
                       max((xmean[1] - xmean[0]) / (vals[1] - vals[0]), cap))
    if not math.isfinite(positions[0] - positions[-1]):
        positions = extend(-1.0, -1.0)
    # enforce strict decrease
    for j in range(1, len(positions)):
        if positions[j] > positions[j - 1] - _MIN_KNOT_GAP:
            positions[j] = positions[j - 1] - _MIN_KNOT_GAP
    return positions


def _exp(t: float) -> float:
    """exp(t), or inf where that leaves the float range."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, as numpy adds under 8 terms (``sum`` compensates from 3.12)."""
    return functools.reduce(operator.add, values, 0.0)


def _positions_from_theta(theta: Sequence[float]) -> list[float]:
    """The descending knots: theta[0] is the top one, theta[1:] the log gaps less
    ``_MIN_KNOT_GAP``. A gap that overflows exp puts every knot below it at -inf."""
    top = theta[0]
    gaps = itertools.accumulate(_MIN_KNOT_GAP + _exp(t) for t in theta[1:])
    return [top, *(top - gap for gap in gaps)]


def _theta_from_positions(positions: Sequence[float]) -> list[float]:
    return [positions[0], *(math.log(max(a - b - _MIN_KNOT_GAP, 1e-9))
                            for a, b in zip(positions, positions[1:]))]


def _sse_and_grad(
    theta: Sequence[float], x: Sequence[float], y: Sequence[float], levels: Sequence[float]
) -> tuple[float, list[float]]:
    """Sum of squared residuals of the 0-clamped model and its exact gradient in theta.

    The knots are taken in ascending order, and x outside them extends the
    end segments linearly. On a segment [a, b] with slope s and
    t = (x - a) / (b - a), the prediction moves by -s(1 - t) per unit of a
    and by -s t per unit of b; both vanish where the clamp is active. The
    knot partials then chain through the log-gap parametrization: every
    position moves one-for-one with theta[0], and position i moves by
    -exp(theta[m]) for every m <= i.

    A theta whose log gaps overflow exp, or that puts a point on a segment whose
    knots collapse onto one float, scores inf with a nan gradient; the line
    search takes such a trial as too long. The squared error sums the points in
    order, and each partial sums them in order per knot, then over the knots.
    """
    n = len(theta)
    try:
        exp_gaps = [math.exp(t) for t in theta[1:]]  # an overflow raises here, before the knots
        xp = _positions_from_theta(theta)[::-1]  # ascending
        fp = levels[::-1]  # descending along xp
        left = [0.0] * n  # each knot's partials as a segment's left end, by ascending knot
        right = [0.0] * n  # ... and as its right end
        sse = 0.0
        for xi, yi in zip(x, y):
            # the left knot, clipped to the end segments
            k = bisect.bisect_right(xp, xi, 1, n - 1) - 1
            xk, fk = xp[k], fp[k]
            width = xp[k + 1] - xk
            dx = xi - xk
            slope = (fp[k + 1] - fk) / width
            raw = fk + slope * dx
            if raw > 0.0:
                res = yi - raw
                t = dx / width
                weight = -2.0 * res
                left[k] += weight * (-slope * (1.0 - t))
                right[k + 1] += weight * (-slope * t)
            else:
                res = yi
            sse += res * res
    except (OverflowError, ZeroDivisionError):
        return math.inf, [math.nan] * n
    # sum over positions i >= m, which are the ascending knots up to n - 1 - m
    tail_sums = list(itertools.accumulate(map(operator.add, left, right)))[::-1]
    return sse, [tail_sums[0], *(-e * s for e, s in zip(exp_gaps, tail_sums[1:]))]


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

    x: list[float]
    f: float
    nfev: int
    nit: int
    converged: bool


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Left to right, as ``_sum`` adds, in a loop that costs less per call than it."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


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
        xt = [xi + stp * di for xi, di in zip(x, d)]
        f, g = fun(xt)
        gd = _dot(g, d)
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


def _lbfgs(fun, x0: Sequence[float]) -> _Solve:
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
    x = x0
    f, g = fun(x)
    nfev, nit = 1, 0
    if not math.isfinite(f) or not all(map(math.isfinite, g)):
        return _Solve(x, f, nfev, nit, False)
    if max(map(abs, g)) <= _LBFGS_GTOL:
        return _Solve(x, f, nfev, nit, True)
    pairs: list[tuple[list[float], list[float], float]] = []  # (s, y, 1 / y.s), oldest first
    gamma = 1.0
    while nit < _LBFGS_MAXITER:
        q = [-gi for gi in g]
        alphas = []
        for s, yv, rho in reversed(pairs):
            alpha = rho * _dot(s, q)
            q = [qi - alpha * yi for qi, yi in zip(q, yv)]
            alphas.append(alpha)
        q = [qi * gamma for qi in q]
        for (s, yv, rho), alpha in zip(pairs, reversed(alphas)):
            beta = alpha - rho * _dot(yv, q)
            q = [qi + beta * si for qi, si in zip(q, s)]
        d = q
        gd = _dot(g, d)
        stp = 1.0 / math.sqrt(_dot(d, d)) if nit == 0 else 1.0
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
        f_old, yv = f, [a - b for a, b in zip(g_new, g)]
        x, f, g = x_new, f_new, g_new
        if max(map(abs, g)) <= _LBFGS_GTOL:
            return _Solve(x, f, nfev, nit, True)
        if f_old - f <= _LBFGS_FTOL * max(abs(f_old), abs(f), 1.0):
            return _Solve(x, f, nfev, nit, True)
        ys = (gd_new - gd) * stp
        if ys > sys.float_info.epsilon * -gd * stp:
            if len(pairs) == _LBFGS_MEMORY:
                pairs.pop(0)
            pairs.append(([stp * di for di in d], yv, 1.0 / ys))
            gamma = ys / _dot(yv, yv)
    return _Solve(x, f, nfev, nit, False)


def _fit_positions(x: Sequence[float], y: Sequence[float], levels: Sequence[float]) -> _Solve:
    """Monotone-constrained least squares of knot positions at fixed levels.

    Parametrized by the top position plus log gaps so monotonicity holds by
    construction; predictions clamp at level 0. ``_lbfgs`` (L-BFGS, after
    Byrd, Lu, Nocedal & Zhu 1995, with the Moré–Thuente 1994 line search) gets
    the exact gradient from ``_sse_and_grad``. Returns the solve with its x
    mapped to the knot positions.
    """
    theta0 = _theta_from_positions(_initial_positions(x, y, levels))
    # a start that overflows scores inf, and fit_kstar_model rejects a best solve whose
    # squared error or knots are not finite
    solve = _lbfgs(lambda theta: _sse_and_grad(theta, x, y, levels), theta0)
    return solve._replace(x=_positions_from_theta(solve.x))


def _householder_lstsq(columns: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """argmin |A z - b| for the matrix A with these columns, by Householder QR.

    Reflection j maps column j's entries from row j on, x, onto -sign(x_0) |x| e_0;
    the same reflections turn b into Q^T b, and back substitution solves
    R z = (Q^T b)[:p]. Raises ZeroDivisionError when a column lies in the span of
    the ones before it. The tests build exact epoch-fit vertices with it, and it is
    the QR that can replace numpy's lstsq in ``fit_epoch_quadratic``.
    """
    r = [list(column) for column in columns]  # becomes R, column by column
    qtb = list(b)
    for j, column in enumerate(r):
        head = column[j]
        norm = math.hypot(*column[j:])
        v = column[j:]
        v[0] = head + math.copysign(norm, head)
        scale = norm * (norm + abs(head))  # v.v / 2
        for other in (*r[j + 1:], qtb):
            f = _dot(v, other[j:]) / scale
            other[j:] = [o - f * vi for o, vi in zip(other[j:], v)]
        column[j] = -math.copysign(norm, head)
    z = [0.0] * len(r)
    for j in reversed(range(len(r))):
        z[j] = (qtb[j] - _dot([r[i][j] for i in range(j + 1, len(r))], z[j + 1:])) / r[j][j]
    return z


def _shift_seed(
    compute_factor: Sequence[float], corpus_factor: Sequence[float], log2_kstar: Sequence[float],
) -> float:
    """Median shift exponent between budgets: the start of the exponent search.

    Under the model a level of log2 k* reached at corpus factor d1 on budget c1 and at
    d2 on budget c2 gives d1 - a * c1 = d2 - a * c2. Each budget's cells, sorted by f_D,
    get their closest nonincreasing fit (as in ``_initial_positions``). For every
    ordered pair of distinct budgets, each fitted level y of the first is found on the
    first segment of the second's fit with lo <= y <= hi and lo < hi, whose d2 is
    interpolated linearly. Returns the median of the finite a = (d1 - d2) / (c1 - c2),
    or nan when there are none.
    """
    budgets: dict[float, list[tuple[float, float]]] = {}
    for c, d, y in zip(compute_factor, corpus_factor, log2_kstar):
        budgets.setdefault(c, []).append((d, y))
    for c, points in budgets.items():  # each budget's levels become their fit
        points.sort(key=operator.itemgetter(0))  # stable: equal f_D keep their order
        fitted = _pav_increasing([-y for _, y in points])
        budgets[c] = [(d, -v) for (d, _), v in zip(points, fitted)]
    shifts = []
    for (c1, fit1), (c2, fit2) in itertools.permutations(budgets.items(), 2):
        segments = [(d_hi, hi, d_lo, lo)
                    for (d_hi, hi), (d_lo, lo) in zip(fit2, fit2[1:]) if lo < hi]
        for d1, y in fit1:
            for d_hi, hi, d_lo, lo in segments:
                if lo <= y <= hi:
                    a = (d1 - (d_hi + (hi - y) / (hi - lo) * (d_lo - d_hi))) / (c1 - c2)
                    if math.isfinite(a):
                        shifts.append(a)
                    break
    if not shifts:
        return math.nan
    shifts.sort()
    half = len(shifts) // 2
    # halves first: the mean of two finite values near the float limit stays finite
    return shifts[half] if len(shifts) % 2 else shifts[half - 1] / 2 + shifts[half] / 2


#: The refinement's steps: five halvings of the 0.05 grid spacing around the walk's minimum.
_REFINE_STEPS = tuple(0.05 / 2**k for k in range(1, 6))


def fit_kstar_model(
    cells: Sequence[tuple[float, float, float]],
    approach: str = APPROACH_MONO_1STAGE,
    h_max: float | None = None,
) -> dict:
    """kstar.json: the epoch model fitted to epochs.json's pooled (f_C, f_D, log2 k*) cells.

    log2 k* is a piecewise-linear function of the shifted corpus factor
    f_D - a * f_C. Needs an approach of ``H_MAX_BY_APPROACH``, which sets the
    default ``h_max``, and at least two distinct compute factors f_C; with a
    single one the shift exponent a is unobservable and this raises. Every
    value must be finite, and a fit whose best squared error overflows, or
    whose best knots are not finite and strictly decreasing, raises FitError.
    Strongly non-monotone data still fits but carries a large-residual warning.
    A fit also warns when it has no more cells than free parameters (the knots
    and the exponent), and when the exponent ends within the last of
    ``_REFINE_STEPS`` of an end of SHIFT_EXPONENT_BOUNDS: in both cases the data
    may not pin the model.

    The shift exponent is searched on a 0.05 grid over SHIFT_EXPONENT_BOUNDS
    (its last point is the upper bound itself), starting at the grid point
    nearest ``_shift_seed`` (the middle of the grid when the seed is not
    finite). The walk solves that point and its neighbours and moves to the
    lowest until neither neighbour is lower, ordering solves by (sse, exponent).
    Each of ``_REFINE_STEPS`` then halves the bracket: of the exponent and the
    two at that step on either side of it, inside the bounds, the lowest is
    kept. So the refinement solves at most two exponents per step, each within
    0.05 of the walk's minimum. No exponent is solved twice, and the model is
    the best solve made, ranked by (sse, exponent): the grid minimum itself
    unless a refinement solve has a strictly lower squared error. Its
    diagnostics carry the solves' L-BFGS counts (``_SOLVE_COUNTS``), summed.
    """
    default_h_max = H_MAX_BY_APPROACH[_approach(approach)]
    h_max = default_h_max if h_max is None else h_max
    if not LEVEL_STEP <= h_max <= H_MAX_LIMIT:
        raise ValidationError(
            f"h_max must be finite and in [{LEVEL_STEP}, {H_MAX_LIMIT}], got {h_max}"
        )
    if h_max % LEVEL_STEP:  # the levels are the multiples of LEVEL_STEP up to h_max
        raise ValidationError(f"h_max must be a multiple of {LEVEL_STEP}, got {h_max}")
    for cell in cells:
        if not all(map(math.isfinite, cell)):
            raise ValidationError(f"k* curve points must be finite, got {tuple(cell)}")
    if len(cells) < 4:
        raise UnderdeterminedError(f"need >= 4 points, got {len(cells)}")
    compute_factor, corpus_factor, log2_kstar = ([float(v) for v in c] for c in zip(*cells))
    if len(set(compute_factor)) < 2:
        raise UnidentifiableError(
            "curves span a single compute budget; the shift exponent is unidentifiable"
        )
    levels = [i * LEVEL_STEP for i in range(int(h_max / LEVEL_STEP) + 1)]
    solves: dict[float, _Solve] = {}

    def solve(exponent: float) -> _Solve:
        """The knot fit at one shift exponent, solved on first use."""
        if exponent not in solves:
            x = [d - exponent * c for c, d in zip(compute_factor, corpus_factor)]
            solves[exponent] = _fit_positions(x, log2_kstar, levels)
        return solves[exponent]

    lo, hi = SHIFT_EXPONENT_BOUNDS
    grid = [lo + i * 0.05 for i in range(round((hi - lo) / 0.05))] + [hi]
    seed = _shift_seed(compute_factor, corpus_factor, log2_kstar)
    nearest = min(range(len(grid)), key=lambda i: abs(grid[i] - seed))
    best_idx = nearest if math.isfinite(seed) else len(grid) // 2
    for _ in grid:  # a downhill walk visits each grid point at most once
        near = range(max(best_idx - 1, 0), min(best_idx + 2, len(grid)))
        lowest = min(near, key=lambda i: (solve(grid[i]).f, grid[i]))
        if lowest == best_idx:
            break
        best_idx = lowest
    exponent = grid[best_idx]
    for step in _REFINE_STEPS:
        near = [a for a in (exponent - step, exponent, exponent + step) if lo <= a <= hi]
        exponent = min(near, key=lambda a: (solve(a).f, a))
    exponent = min(solves, key=lambda a: (solves[a].f, a))  # the best solve made
    sse, positions = solves[exponent].f, solves[exponent].x
    if not math.isfinite(sse):
        raise FitError(f"the squared error of the best fit is not finite ({sse})")
    # knots without data can drift until their gaps fall below float resolution
    if not (all(map(math.isfinite, positions))
            and all(b < a for a, b in zip(positions, positions[1:]))):
        raise FitError("the knot positions of the best fit are not finite and strictly decreasing")
    warnings: list[str] = []
    if sse / len(cells) > _LARGE_RESIDUAL_MSR:
        warnings.append(
            f"large residuals (mean squared residual {sse / len(cells):.3g}); "
            "data may not be monotone in the shifted corpus factor"
        )
    if len(cells) <= len(levels) + 1:  # the knot positions and the shift exponent
        warnings.append(f"{len(cells)} cells for {len(levels) + 1} free parameters; "
                        "the data do not pin the model")
    if min(exponent - lo, hi - exponent) <= _REFINE_STEPS[-1]:
        warnings.append(f"shift exponent {exponent:.3g} at an end of its search range "
                        f"[{lo}, {hi}]; the data may not pin it")
    return {
        "model_type": "kstar",
        "parameters": {
            "approach": approach,
            "shift_exponent": exponent,
            "knots": [{"h": h, "f_D": p} for h, p in zip(levels, positions)],
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


def kstar_extrapolation(model: tuple[float, Sequence[float], Sequence[float]]) -> list[tuple]:
    """kstar_extrapolation.csv's (C, D_T, k*) rows: C is the reference, and D_T steps by half
    factors over the knots' f_D span ±1; each must be positive and finite (<= ~4,200 rows)."""
    ref = reference_constants()
    positions = model[2]
    lo = math.floor(min(positions)) - 1
    hi = math.ceil(max(positions)) + 1
    if hi >= sys.float_info.max_exp or not (0.0 < ref.target_tokens * 2.0**lo
                                            and ref.target_tokens * 2.0**hi < math.inf):
        raise ValidationError(f"knots at f_D {min(positions):.6g} to "
                              f"{max(positions):.6g} leave the float range of D_T")
    grid = [ref.target_tokens * 2.0 ** (lo + 0.5 * i) for i in range(2 * (hi - lo) + 1)]
    return [(ref.compute, d_t, predict_kstar(model, ref.compute, d_t)) for d_t in grid]


# ---------------------------------------------------------------------------
# Ratio power law
# ---------------------------------------------------------------------------


def fit_ratio_power_law(points: Iterable[tuple[float, float, float, float]]) -> dict:
    """ratio.json: a closed-form shared-slope regression in log-log space.

    Points are (model scale, total tokens, ratio, loss), grouped by the
    exact (model scale, total tokens) pair; every value must be finite.
    Within-group centering removes the intercepts, so the pooled slope is
    sum of centered cross products over sum of centered squares, summed in
    sorted group order. Each group's intercept L0 is its ratio-1 loss level,
    so scaling one group's losses by a positive constant moves only that
    group's L0. A group with a single ratio value is dropped with a warning;
    none left raises, and so does an L0 that leaves the float range. Every
    sum is ``_sum``, left to right as numpy adds below 8 terms, so the bits
    are numpy's on every Python; ``math.fsum`` rounds differently.
    """
    groups: dict[tuple[float, float], list[tuple[float, float]]] = {}
    for point in points:
        model_scale, total_tokens, ratio, loss = map(float, point)
        if not all(map(math.isfinite, (model_scale, total_tokens, ratio, loss))):
            raise ValidationError(f"ratio points must be finite, got {tuple(point)}")
        if not 0 < ratio <= 1:
            raise ValidationError(f"ratio must be in (0, 1], got {ratio}")
        if loss <= 0:
            raise ValidationError(f"loss must be positive, got {loss}")
        groups.setdefault((model_scale, total_tokens), []).append((math.log(ratio), math.log(loss)))
    warnings = []
    numerator = denominator = 0.0
    centered = []  # (key, x, y, x_mean, y_mean) of each group kept
    for key in sorted(groups):
        x, y = zip(*groups[key])
        if len(set(x)) < 2:
            warnings.append(f"group (M={key[0]:.6g}, D={key[1]:.6g}) dropped: single ratio value")
            continue
        x_mean, y_mean = _sum(x) / len(x), _sum(y) / len(y)
        dx = [a - x_mean for a in x]
        numerator += _sum(d * (b - y_mean) for d, b in zip(dx, y))
        denominator += _sum(d * d for d in dx)
        centered.append((key, x, y, x_mean, y_mean))
    if not centered:
        raise UnderdeterminedError("no (model scale, total tokens) group has two distinct "
                                   f"ratios: {len(warnings)} group(s) had a single ratio value")
    exponent = numerator / denominator
    intercepts, rss = [], 0.0
    for (m, d), x, y, x_mean, y_mean in centered:
        level = _exp(y_mean - exponent * x_mean)
        if not 0.0 < level < math.inf:
            raise UnidentifiableError(
                f"ratio-1 loss of group (M={m:.6g}, D={d:.6g}) leaves the float range"
            )
        intercepts.append({"M": m, "D": d, "L0": level})
        res = [b - (y_mean + exponent * (a - x_mean)) for a, b in zip(x, y)]
        rss += _sum(e * e for e in res)
    return {
        "model_type": "ratio_power_law",
        "parameters": {"exponent": exponent, "intercepts": intercepts},
        "diagnostics": {
            "rss": rss,
            "n_points": sum(len(x) for _, x, *_ in centered),
            "group_count": len(centered),
            "warnings": warnings,
        },
    }


def predict_ratio_loss(model: tuple[float, dict], M: float, D: float, r: float) -> float | None:
    """L0 * r**exponent of group (M, D) in ``ratio_fit_from_wire``'s model; None if it has no L0."""
    exponent, intercepts = model
    if (M, D) not in intercepts:
        return None
    try:
        loss = intercepts[M, D] * r**exponent
    except OverflowError:
        loss = math.inf
    if not 0.0 < loss < math.inf:
        raise ValidationError(f"predicted loss of group (M={M:.6g}, D={D:.6g}) "
                              f"at r={r:.6g} leaves the float range")
    return loss


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


def _approach(approach: str, error: type[Exception] = ValidationError) -> str:
    """``approach`` if ``H_MAX_BY_APPROACH`` knows it; else ``error``, a loader's ValueError."""
    if approach not in H_MAX_BY_APPROACH:
        raise error(f"approach must be one of {sorted(H_MAX_BY_APPROACH)}, got {approach!r}")
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
    _approach(json_field(params, "approach", str), ValueError)
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


def epoch_fits_from_wire(obj: dict) -> tuple[str, list[dict], int]:
    """The approach and the cells of an epoch_quadratics model file, and the
    number of cells its warnings list as skipped.

    Each cell is its f_C, f_D and ``_EPOCH_CELL`` fields, each read as its JSON type,
    and no (f_C, f_D) is listed twice. A cell's C and D_T must stay finite and nonzero,
    as a derived setup's do. Its k_star must equal 2**f_k_star, as
    ``fit_epoch_quadratic`` derives it, and be a positive, finite float.
    """
    params, diagnostics = _sections(obj, "epoch_quadratics")
    approach = _approach(json_field(params, "approach", str), ValueError)
    _diagnostics(diagnostics)
    skipped = sum(w.startswith("cell (") and " skipped: " in w
                  for w in diagnostics.get("warnings", []))
    cells = {}
    for entry in _objects(params, "fits"):
        f_C, f_D = json_field(entry, "f_C", int), json_field(entry, "f_D", int)
        if (f_C, f_D) in cells:
            raise ValueError(f"cell (f_C={f_C}, f_D={f_D}) is listed twice")
        cell_budgets(f_C, f_D)  # raises for a cell outside the float range
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
    return approach, list(cells.values()), skipped
