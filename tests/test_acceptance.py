"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
from fractions import Fraction

import numpy as np

from mixsweep import analysis, budget, fitting, schedule, space, surrogate, trainplan
from mixsweep.cli import run
from mixsweep.errors import UnidentifiableError


def _criterion(name: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    assert passed, name


def test_criterion_01_model_scale_ladder():
    printed = {5: "1.49e+07", 4: "2.99e+07", 3: "5.85e+07", 2: "1.18e+08",
               1: "2.36e+08", 0: "4.70e+08", -1: "9.39e+08"}
    ok = True
    for f_M, expected in printed.items():
        shape = trainplan.shape_for_factor(f_M)
        recomputed = trainplan.model_scale(shape.n_layers, shape.d_model, shape.seq_len)
        ok = ok and f"{recomputed:.2e}" == expected and shape.flops_per_token == recomputed
    _criterion("1 model-scale formula matches all 7 ladder rows to 3 sig figs", ok)


def test_criterion_02_reference_constant_consistency():
    ref = budget.reference_constants()
    ladder = trainplan.shape_for_factor(0).flops_per_token
    rel = abs(ref.model_scale - ladder) / ref.model_scale
    _criterion(f"2 reference scale vs ladder row 0 within 1% (got {rel:.2e})", rel < 0.01)


def test_criterion_03_factor_identity(all_setups):
    violations = 0
    for spec in all_setups:
        f = spec.factors
        derived = spec.derived()
        if -f.f_M + (f.f_D + f.f_k + f.f_r) != f.f_C:
            violations += 1
            continue
        if f.f_D != -f.f_r + f.f_M - f.f_k + f.f_C:
            violations += 1
            continue
        lhs = derived.model_scale * (derived.epochs * derived.target_tokens / float(derived.ratio))
        if abs(lhs - derived.compute) / derived.compute >= 1e-12:
            violations += 1
    _criterion(
        f"3 compute identity exact for all {len(all_setups)} setups ({violations} violations)",
        violations == 0,
    )


def test_criterion_04_enumeration_oracle():
    count = 0
    for f_r in range(0, 4):
        for f_M in range(-1, 5):
            for f_k in range(0, 10):
                if -5 <= -f_r + f_M - f_k + 0 < 2:
                    count += 1
    row = {0: space.default_ranges()[0]}
    enumerated = len(space.enumerate_single_stage(row))
    quarter = sum(
        1 for r1 in space.FIRST_STAGE_RATIOS for r2 in space.SECOND_STAGE_RATIOS
        if r1 < Fraction(1, 4) < r2
    )
    unit = sum(
        1 for r1 in space.FIRST_STAGE_RATIOS for r2 in space.SECOND_STAGE_RATIOS
        if r1 < Fraction(1) < r2
    )
    two = space.enumerate_two_stage(row)
    per_tuple = {}
    for spec in two:
        per_tuple[spec.factors] = per_tuple.get(spec.factors, 0) + 1
    quarter_counts = {per_tuple.get(f, 0) for f in per_tuple if f.f_r == 2}
    ok = (
        enumerated == count == 134
        and quarter == 12
        and unit == 0
        and quarter_counts == {12}
        and not any(f.f_r == 0 for f in per_tuple)
    )
    _criterion(
        f"4 enumeration matches brute force (134 single; r=1/4 -> 12, r=1 -> 0)", ok
    )


def test_criterion_05_batch_rule_traces():
    shape = trainplan.shape_for_factor(0)
    big = trainplan.batch_config(1e18, shape)
    small = trainplan.batch_config(6.25e16, shape)
    ok = big.global_batch_seqs == 64 and small.global_batch_seqs == 24
    _criterion("5 batch-sizing rule reproduces hand traces (64 and 24 sequences)", ok)


def test_criterion_06_quadratic_fitter():
    exact = fitting.fit_epoch_quadratic([(k, (k - 2) ** 2 + 1) for k in range(6)])
    exact_ok = exact["rss"] <= 1e-18 and abs(exact["f_k_star"] - 2.0) <= 1e-9
    seeds = np.random.default_rng(2024).integers(0, 2**32, size=100)
    hits = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        points = [(k, 0.05 * (k - 2.3) ** 2 + 2.0 + rng.normal(0.0, 0.005)) for k in range(6)]
        if abs(fitting.fit_epoch_quadratic(points)["f_k_star"] - 2.3) <= 0.3:
            hits += 1
    _criterion(
        f"6 quadratic fitter: exact on noiseless, {hits}/100 within +-0.3 at sigma=0.005",
        exact_ok and hits >= 95,
    )


def test_criterion_07_ratio_power_law_fitter():
    groups = [(4.7e8, 2.1e9), (2.35e8, 4.2e9), (1.2e8, 8.4e9), (9.4e8, 1.05e9)]
    levels = [3.1, 2.9, 2.7, 3.3]
    exact_points = [
        (m, d, r, level * r**-0.101)
        for (m, d), level in zip(groups, levels)
        for r in (1.0, 0.5, 0.25, 0.125)
    ]
    exact = fitting.fit_ratio_power_law(exact_points)
    exact_ok = abs(exact["parameters"]["exponent"] - (-0.101)) <= 1e-12
    seeds = np.random.default_rng(77).integers(0, 2**32, size=100)
    hits = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        points = [
            (m, d, r, level * r**-0.101 * math.exp(rng.normal(0.0, 0.01)))
            for (m, d), level in zip(groups, levels)
            for _ in range(2)
            for r in (1.0, 0.5, 0.25, 0.125, 0.0625)
        ]
        if abs(fitting.fit_ratio_power_law(points)["parameters"]["exponent"] - (-0.101)) <= 0.01:
            hits += 1
    _criterion(
        f"7 ratio power law: exact exponent recovery, {hits}/100 within +-0.01 at 1% noise",
        exact_ok and hits >= 95,
    )


def test_criterion_08_kstar_model_fitter():
    ref = budget.reference_constants()

    def curves(budget_factors):
        out = []
        for f_C in budget_factors:
            shift = 0.5 * f_C
            for i in range(int((-6 + shift) / 0.5), int(shift / 0.5) + 1):
                f_D = i * 0.5
                out.append((f_C, f_D, -(2.0 / 3.0) * (f_D - shift)))
        return out

    doc = fitting.fit_kstar_model(curves((-4, -2)), "mono-1stage")
    exponent = doc["parameters"]["shift_exponent"]
    exponent_ok = abs(exponent - 0.5) <= 0.02
    model = fitting.kstar_from_wire(doc)
    heldout_ok = True
    for f_D in (-5.0, -4.5, -4.0, -3.0, -2.0, -1.0):
        predicted = fitting.predict_kstar(model, ref.compute, ref.target_tokens * 2.0**f_D)
        planted = 2.0 ** (-(2.0 / 3.0) * f_D)
        heldout_ok = heldout_ok and abs(math.log2(predicted) - math.log2(planted)) <= 0.25
    try:
        fitting.fit_kstar_model(curves((-4,)), "mono-1stage")
        single_ok = False
    except UnidentifiableError:
        single_ok = True
    _criterion(
        f"8 epoch-extrapolation model: shift exponent {exponent:.4f} "
        "(planted 0.5), held-out within 2^0.25, single-budget raises",
        exponent_ok and heldout_ok and single_ok,
    )


def test_criterion_09_schedule_accounting(all_setups):
    ref = budget.reference_constants()
    exact = True
    two_stage = [s for s in all_setups if s.is_two_stage and s.factors.f_C in (-4, 0)]
    assert two_stage
    for spec in two_stage:
        setup = spec.derived()
        budgets = trainplan.stage_budgets(setup, spec.split())
        expected = math.ldexp(ref.target_tokens, setup.f_D + setup.factors.f_k)
        exact = exact and sum(b.target_tokens for b in budgets) == expected
    interleave_ok = True
    for ratio in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
                  Fraction(1, 2), Fraction(1)):
        worst = max(
            abs(schedule.targets_before(ratio, n) - float(ratio) * n) for n in range(1, 10001)
        )
        interleave_ok = interleave_ok and worst <= 1.0
    seeds = schedule.epoch_seeds(64, 42)
    seeds_ok = len(set(seeds)) == 64 and seeds == schedule.epoch_seeds(64, 42)
    _criterion(
        "9 schedule accounting: exact target sums, interleaver discrepancy <= 1 "
        "over 10000 batches, epoch seeds distinct and reproducible",
        exact and interleave_ok and seeds_ok,
    )


def test_criterion_10_analysis_structure(all_setups):
    def pipeline(gamma):
        params = surrogate.SurrogateParams(second_stage_weight=gamma)
        records = surrogate.generate_dataset(all_setups, params)
        report = analysis.build_report(analysis.ingest(records, all_setups))
        nesting = True
        for group in report["groups"]:
            minima = group["minima"]
            chain = [
                minima[c]["loss"]
                for c in ("multi-2stage", "multi-1stage", "mono-1stage")
                if c in minima
            ]
            nesting = nesting and all(a <= b for a, b in zip(chain, chain[1:]))
        # every budget has a mono-1stage minimum, so every budget is scanned
        budgets = sorted({group["f_C"] for group in report["groups"]})
        scanned = [entry["f_C"] for entry in report["thresholds"]] == budgets
        return nesting and scanned, report["thresholds"]

    nesting_half, reports_half = pipeline(0.5)
    nesting_zero, reports_zero = pipeline(0.0)
    crossings_ok = all(r["crossed"] for r in reports_half) and all(
        (r["upper_D_T"] if r["upper_D_T"] is not None else r["lower_D_T"]) < r["D_star"]
        for r in reports_half
    )
    none_ok = not any(r["crossed"] for r in reports_zero)
    _criterion(
        "10 analysis structure: category nesting holds; gamma=0.5 switches below "
        "D*(C) at every budget; gamma=0 finds no crossing",
        nesting_half and nesting_zero and crossings_ok and none_ok,
    )


def test_criterion_11_cli_determinism(tmp_path):
    def render(tag):
        base = tmp_path / tag
        base.mkdir()
        setups = str(base / "setups.jsonl")
        results = str(base / "results.csv")
        report = str(base / "report.json")
        epochs = str(base / "epochs.json")
        kstar = str(base / "kstar.json")
        ratio = str(base / "ratio.json")
        assert run(["enumerate", "--out", setups]) == 0
        assert run(["simulate", "--setups", setups, "--out", results, "--seed", "11"]) == 0
        assert run(["analyze", "--results", results, "--setups", setups, "--out", report]) == 0
        assert run(["fit", "epochs", "--results", results, "--setups", setups,
                    "--approach", "mono-1stage", "--out", epochs]) == 0
        assert run(["fit", "kstar", "--epoch-fits", epochs, "--out", kstar]) == 0
        assert run(["fit", "ratio", "--results", results, "--setups", setups,
                    "--out", ratio]) == 0
        return [open(p, "rb").read() for p in (setups, results, report, epochs, kstar, ratio)]

    first = render("one")
    second = render("two")
    _criterion(
        "11 determinism: enumerate|simulate|analyze|fit re-runs byte-identical",
        first == second,
    )
