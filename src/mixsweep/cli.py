"""Command-line surface binding all modules.

Subcommands: enumerate, plan, simulate, analyze, fit (epochs|kstar|ratio),
predict kstar, report. Every command is deterministic given its inputs and
declared seeds; all file writes are atomic (write-temp-then-rename) and
existing outputs are never overwritten without --force.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 fit error.
Config precedence: flags > config file (--config or $MIXSWEEP_CONFIG) > defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Sequence

from . import analysis, fitting, schedule, space, surrogate, trainplan
from .budget import reference_constants
from .errors import (
    FileFormatError,
    FitError,
    MixsweepError,
    UnderdeterminedError,
    UsageError,
    ValidationError,
)

ENV_CONFIG = "MIXSWEEP_CONFIG"

_CONFIG_KEYS = {"devices", "seed", "epsilon"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def _write_output(path: str, text: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (pass --force)")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(value) for value in row])
    return buf.getvalue()


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _read_setups(path: str) -> list[space.SetupSpec]:
    with open(path, encoding="utf-8") as fh:
        try:
            return list(space.read_jsonl(fh))
        except FileFormatError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc


def _read_results(path: str) -> list[analysis.LossRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return list(analysis.read_results_csv(fh))
        except FileFormatError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return obj


def _load_config(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    config = _read_json(path)
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise FileFormatError(f"{path}: unknown config key(s) {sorted(unknown)}")
    return config


def _resolve(flag_value, config: dict, key: str, default, kind):
    """Flag value, else config value, else default; a config value is cast by ``kind``."""
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    try:
        return kind(config[key])
    except (TypeError, ValueError):
        raise ValidationError(
            f"config key {key!r}: cannot read {config[key]!r} as {kind.__name__}"
        ) from None


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    ranges = space.default_ranges()
    if args.fc:
        unknown = [f for f in args.fc if f not in ranges.rows]
        if unknown:
            raise UsageError(f"--fc values outside the grid rows: {unknown}")
        ranges = ranges.restrict_budgets(args.fc)
    if args.stages == "single":
        specs = space.enumerate_single_stage(ranges)
    elif args.stages == "two":
        specs = space.enumerate_two_stage(ranges)
    else:
        specs = space.enumerate_all(ranges)
    buf = io.StringIO()
    count = space.write_jsonl(specs, buf)
    _write_output(args.out, buf.getvalue(), args.force)
    print(f"wrote {count} setups to {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _cmd_plan(args) -> int:
    config = _load_config(args)
    devices = _resolve(args.devices, config, "devices", trainplan.DEFAULT_DEVICES, int)
    base_seed = _resolve(args.base_seed, config, "seed", 0, int)
    specs = {spec.id: spec for spec in _read_setups(args.setups)}
    spec = specs.get(args.setup_id)
    if spec is None:
        raise ValidationError(f"setup id {args.setup_id!r} not found in {args.setups}")
    derived = spec.derived()
    split = spec.split()
    plan = trainplan.build_training_plan(
        derived,
        split,
        devices=devices,
        setup_id=spec.id,
        high_available=args.high_available,
    )
    sched = schedule.build_schedule(
        derived,
        split,
        batch_tokens=plan.batch.global_batch_tokens,
        base_seed=base_seed,
        high_available=args.high_available,
        setup_id=spec.id,
    )
    doc = {
        "schema_version": 1,
        "training_plan": trainplan.plan_to_wire(plan),
        "schedule": schedule.schedule_to_wire(sched),
    }
    _write_output(args.out, _json_text(doc), args.force)
    if args.schedule_csv:
        text = _csv_text(
            ("batch_index", "stage", "source", "tokens"), schedule.schedule_rows(sched)
        )
        _write_output(args.schedule_csv, text, args.force)
    print(f"wrote plan for {spec.id} to {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    params = (
        surrogate.params_from_dict(_read_json(args.params))
        if args.params
        else surrogate.SurrogateParams()
    )
    seed = _resolve(args.seed, config, "seed", None, int)
    specs = _read_setups(args.setups)
    records = surrogate.generate_dataset(
        specs, params, seed, language_pair=args.pair
    )
    text = _csv_text(
        analysis.RESULTS_HEADER,
        ((r.setup_id, r.language_pair, r.val_loss) for r in records),
    )
    _write_output(args.out, text, args.force)
    print(f"wrote {len(records)} surrogate records to {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _approach_minima_rows(report: dict):
    for group in report["groups"]:
        for category in sorted(group["minima"]):
            entry = group["minima"][category]
            yield (
                group["C"],
                group["D_T"],
                category,
                entry["loss"],
                entry["setup_id"],
            )


def _scale_minima_rows(report: dict):
    for row in report["scale_minima"]:
        yield (row["C"], row["D_T"], row["f_M"], row["M"], row["loss"], row["setup_id"])


def _write_analysis_tables(report: dict, directory: str, force: bool) -> None:
    _write_output(
        os.path.join(directory, "approach_minima.csv"),
        _csv_text(("C", "D_T", "approach", "min_loss", "setup_id"), _approach_minima_rows(report)),
        force,
    )
    _write_output(
        os.path.join(directory, "scale_minima.csv"),
        _csv_text(("C", "D_T", "f_M", "M", "min_loss", "setup_id"), _scale_minima_rows(report)),
        force,
    )


def _cmd_analyze(args) -> int:
    config = _load_config(args)
    epsilon = _resolve(args.epsilon, config, "epsilon", 0.0, float)
    specs = _read_setups(args.setups)
    records = _read_results(args.results)
    results = analysis.ingest(records, specs)
    report = analysis.build_report(results, pair=args.pair, epsilon=epsilon)
    _write_output(args.out, _json_text(report), args.force)
    if args.tables_dir:
        _write_analysis_tables(report, args.tables_dir, args.force)
    rejected = len(report["ingest"]["rejected_unknown"])
    print(
        f"analyzed {report['ingest']['n_records']} records "
        f"({rejected} rejected) -> {args.out}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _epoch_cells(
    results: analysis.ResultSet, approach: str, pair: str | None
) -> dict[tuple[int, int], dict[int, float]]:
    losses = results.for_pair(pair)
    cells: dict[tuple[int, int], dict[int, float]] = {}
    for setup_id, loss in losses.items():
        spec = results.setups[setup_id]
        if not space.in_category(spec, approach):
            continue
        key = (spec.factors.f_C, spec.factors.f_D)
        per_k = cells.setdefault(key, {})
        f_k = spec.factors.f_k
        per_k[f_k] = min(per_k.get(f_k, math.inf), loss)
    return cells


def _cmd_fit_epochs(args) -> int:
    specs = _read_setups(args.setups)
    records = _read_results(args.results)
    results = analysis.ingest(records, specs)
    cells = _epoch_cells(results, args.approach, args.pair)
    fits = []
    skipped = []
    total_rss = 0.0
    total_points = 0
    for (f_C, f_D) in sorted(cells):
        points = sorted(cells[(f_C, f_D)].items())
        if len(points) < 3:
            skipped.append(
                f"cell (f_C={f_C}, f_D={f_D}) skipped: {len(points)} epoch value(s) < 3"
            )
            continue
        fit = fitting.fit_epoch_quadratic([(float(k), loss) for k, loss in points])
        entry = {"f_C": f_C, "f_D": f_D}
        entry.update(fitting.quadratic_to_wire(fit))
        fits.append(entry)
        total_rss += fit.rss
        total_points += fit.n_points
    if not fits:
        raise UnderdeterminedError("no budget cell has enough distinct epoch values to fit")
    doc = {
        "model_type": "epoch_quadratics",
        "parameters": {"approach": args.approach, "fits": fits},
        "diagnostics": {"rss": total_rss, "n_points": total_points, "warnings": skipped},
    }
    _write_output(args.out, _json_text(doc), args.force)
    print(f"fitted {len(fits)} epoch quadratics -> {args.out}", file=sys.stderr)
    return 0


def _cmd_fit_kstar(args) -> int:
    doc = _read_json(args.epoch_fits)
    if doc.get("model_type") != "epoch_quadratics":
        raise FileFormatError(
            f"{args.epoch_fits}: expected an epoch_quadratics model file"
        )
    ref = reference_constants()
    curves = [
        (math.ldexp(ref.compute, fit["f_C"]), float(fit["f_D"]), float(fit["f_k_star"]))
        for fit in doc["parameters"]["fits"]
    ]
    model = fitting.fit_kstar_model(
        curves, approach=doc["parameters"]["approach"], h_max=args.h_max
    )
    _write_output(args.out, _json_text(fitting.kstar_to_wire(model)), args.force)
    print(
        f"fitted epoch-extrapolation model (shift exponent "
        f"{model.shift_exponent:.4f}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_fit_ratio(args) -> int:
    specs = _read_setups(args.setups)
    records = _read_results(args.results)
    results = analysis.ingest(records, specs)
    losses = results.for_pair(args.pair)
    grouped: dict[tuple[float, float], list[tuple[float, float, float, float]]] = {}
    for setup_id, loss in losses.items():
        spec = results.setups[setup_id]
        if spec.is_two_stage or spec.factors.f_k != 0:
            continue
        derived = spec.derived()
        point = (derived.model_scale, derived.total_tokens, float(derived.ratio), loss)
        grouped.setdefault((point[0], point[1]), []).append(point)
    points = []
    dropped = []
    for key in sorted(grouped):
        group = grouped[key]
        if len({p[2] for p in group}) < 2:
            dropped.append(
                f"group (M={key[0]:.6g}, D={key[1]:.6g}) dropped: single ratio value"
            )
            continue
        points.extend(group)
    if not points:
        raise UnderdeterminedError("no single-epoch single-stage group has two distinct ratios")
    fit = fitting.fit_ratio_power_law(points)
    doc = fitting.ratio_fit_to_wire(fit)
    doc["diagnostics"]["warnings"] = dropped
    _write_output(args.out, _json_text(doc), args.force)
    print(
        f"fitted ratio power law (exponent {fit.exponent:.4f}, "
        f"{fit.group_count} groups) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_fit(args) -> int:
    handler = {"epochs": _cmd_fit_epochs, "kstar": _cmd_fit_kstar, "ratio": _cmd_fit_ratio}
    return handler[args.model](args)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _cmd_predict(args) -> int:
    doc = _read_json(args.model_file)
    if doc.get("model_type") != "kstar":
        raise FileFormatError(f"{args.model_file}: expected a kstar model file")
    model = fitting.kstar_from_wire(doc)
    value = fitting.predict_kstar(
        model, args.compute, args.target_tokens, round_to_power_of_two=args.round_pow2
    )
    print(repr(value))
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> int:
    report = _read_json(args.analysis)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_analysis_tables(report, args.out_dir, args.force)
    if args.epoch_fits:
        doc = _read_json(args.epoch_fits)
        ref = reference_constants()
        rows = [
            (
                math.ldexp(ref.compute, fit["f_C"]),
                math.ldexp(ref.target_tokens, fit["f_D"]),
                fit["f_k_star"],
                fit["k_star"],
                fit["convex"],
            )
            for fit in doc["parameters"]["fits"]
        ]
        _write_output(
            os.path.join(args.out_dir, "epoch_optima.csv"),
            _csv_text(("C", "D_T", "f_k_star", "k_star", "convex"), rows),
            args.force,
        )
    if args.kstar_model:
        model = fitting.kstar_from_wire(_read_json(args.kstar_model))
        ref = reference_constants()
        lo = math.floor(min(model.positions)) - 1
        hi = math.ceil(max(model.positions)) + 1
        rows = []
        steps = int(round((hi - lo) / 0.5))
        for i in range(steps + 1):
            f_D = lo + 0.5 * i
            d_t = ref.target_tokens * 2.0**f_D
            rows.append((ref.compute, d_t, fitting.predict_kstar(model, ref.compute, d_t)))
        _write_output(
            os.path.join(args.out_dir, "kstar_extrapolation.csv"),
            _csv_text(("C", "D_T", "k_star"), rows),
            args.force,
        )
    if args.results and args.setups:
        specs = _read_setups(args.setups)
        records = _read_results(args.results)
        results = analysis.ingest(records, specs)
        losses = results.for_pair(args.pair)
        ratio_fit = None
        if args.ratio_fit:
            doc = _read_json(args.ratio_fit)
            intercepts = {
                (entry["M"], entry["D"]): entry["L0"]
                for entry in doc["parameters"]["intercepts"]
            }
            exponent = doc["parameters"]["exponent"]
            ratio_fit = (exponent, intercepts)
        rows = []
        for setup_id in sorted(losses):
            spec = results.setups[setup_id]
            if spec.is_two_stage or spec.factors.f_k != 0:
                continue
            derived = spec.derived()
            key = (derived.model_scale, derived.total_tokens)
            predicted = ""
            if ratio_fit is not None and key in ratio_fit[1]:
                predicted = ratio_fit[1][key] * float(derived.ratio) ** ratio_fit[0]
            rows.append(
                (
                    derived.model_scale,
                    derived.total_tokens,
                    float(derived.ratio),
                    losses[setup_id],
                    predicted,
                )
            )
        _write_output(
            os.path.join(args.out_dir, "ratio_curves.csv"),
            _csv_text(("M", "D", "r", "val_loss", "predicted_loss"), rows),
            args.force,
        )
    if args.summary:
        print(_render_summary(report))
    else:
        print(f"wrote report tables to {args.out_dir}", file=sys.stderr)
    return 0


def _render_summary(report: dict) -> str:
    lines = []
    ingest = report["ingest"]
    lines.append(f"analysis summary (language pair: {report['language_pair']})")
    lines.append(
        f"  records: {ingest['n_records']} accepted, "
        f"{len(ingest['rejected_unknown'])} rejected, "
        f"{len(ingest['duplicates'])} duplicate keys reduced"
    )
    d_star_by_fc = {entry["f_C"]: entry for entry in report["compute_optimal"]}
    for entry in report["thresholds"]:
        f_C = entry["f_C"]
        d_star = d_star_by_fc.get(f_C, {}).get("D_star")
        d_star_text = f"D*={d_star:.4g}" if d_star else "D* unavailable"
        if not entry["crossed"]:
            verdict = "no approach switch found"
        elif entry["open_upper"]:
            verdict = (
                f"multi-2stage wins everywhere measured "
                f"(largest win at D_T={entry['lower_D_T']:.4g}; no upper crossing)"
            )
        else:
            verdict = (
                f"switch between D_T={entry['lower_D_T']:.4g} and "
                f"{entry['upper_D_T']:.4g} "
                f"(D*/ratios {entry['ratio_lower']:.3g}-{entry['ratio_upper']:.3g})"
            )
        lines.append(f"  f_C={f_C} (C={entry['C']:.3g}): {d_star_text}; {verdict}")
    fold = report["optimal_scale"]["fold_change"]
    folds = ", ".join(f"f_C={k}: {v:.3g}x" for k, v in fold.items())
    lines.append(f"  optimal-scale fold change across corpus sizes: {folds}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixsweep", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="config file (overrides $MIXSWEEP_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="emit the setup grid as JSON Lines")
    p.add_argument("--out", required=True)
    p.add_argument("--stages", choices=("both", "single", "two"), default="both")
    p.add_argument("--fc", type=int, nargs="+", help="restrict to these compute factors")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("plan", help="emit a training plan plus mixture schedule")
    p.add_argument("setup_id")
    p.add_argument("--setups", required=True, help="setups JSONL from enumerate")
    p.add_argument("--out", required=True)
    p.add_argument("--devices", type=int)
    p.add_argument("--base-seed", type=int, dest="base_seed")
    p.add_argument("--schedule-csv", dest="schedule_csv")
    p.add_argument("--high-available", type=float, dest="high_available")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("simulate", help="generate surrogate losses for a setup grid")
    p.add_argument("--setups", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params", help="surrogate parameter JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--pair", default="surrogate")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("analyze", help="run the sweep analyses over measured losses")
    p.add_argument("--results", required=True)
    p.add_argument("--setups", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pair")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--tables-dir", dest="tables_dir")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("fit", help="fit one of the sweep models")
    fit_sub = p.add_subparsers(dest="model", required=True)

    pf = fit_sub.add_parser("epochs", help="quadratic epoch-optimum fits per budget cell")
    pf.add_argument("--results", required=True)
    pf.add_argument("--setups", required=True)
    pf.add_argument("--approach", choices=(space.APPROACH_MONO_1STAGE, space.APPROACH_MULTI_2STAGE),
                    default=space.APPROACH_MONO_1STAGE)
    pf.add_argument("--pair")
    pf.add_argument("--out", required=True)
    pf.add_argument("--force", action="store_true")
    pf.set_defaults(handler=_cmd_fit, model="epochs")

    pf = fit_sub.add_parser("kstar", help="epoch-extrapolation model from epoch fits")
    pf.add_argument("--epoch-fits", required=True, dest="epoch_fits")
    pf.add_argument("--h-max", type=float, dest="h_max")
    pf.add_argument("--out", required=True)
    pf.add_argument("--force", action="store_true")
    pf.set_defaults(handler=_cmd_fit, model="kstar")

    pf = fit_sub.add_parser("ratio", help="shared-exponent ratio power law")
    pf.add_argument("--results", required=True)
    pf.add_argument("--setups", required=True)
    pf.add_argument("--pair")
    pf.add_argument("--out", required=True)
    pf.add_argument("--force", action="store_true")
    pf.set_defaults(handler=_cmd_fit, model="ratio")

    p = sub.add_parser("predict", help="evaluate a stored model")
    predict_sub = p.add_subparsers(dest="what", required=True)
    pp = predict_sub.add_parser("kstar", help="optimal epoch count at (C, D_T)")
    pp.add_argument("--model", required=True, dest="model_file")
    pp.add_argument("--C", type=float, required=True, dest="compute")
    pp.add_argument("--DT", type=float, required=True, dest="target_tokens")
    pp.add_argument("--round-pow2", action="store_true", dest="round_pow2")
    pp.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("report", help="assemble plot-ready tables from artifacts")
    p.add_argument("--analysis", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--epoch-fits", dest="epoch_fits")
    p.add_argument("--kstar-model", dest="kstar_model")
    p.add_argument("--ratio-fit", dest="ratio_fit")
    p.add_argument("--results")
    p.add_argument("--setups")
    p.add_argument("--pair")
    p.add_argument("--summary", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_report)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except (MixsweepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
