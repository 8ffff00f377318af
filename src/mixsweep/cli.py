"""Command-line surface binding all modules.

Subcommands: enumerate, plan, simulate, analyze, fit (epochs|kstar|ratio),
predict kstar, report. Every command is deterministic given its inputs and
declared seeds. A command's handler only computes: it returns its outputs, its
stdout text and its one-line stderr note, and :func:`run` commits them in one
place. Every output is written to a temp file and renamed into place, then
stdout and stderr are written; if any step fails (a full disk, a closed pipe),
no output is left and a file replaced under --force is restored. Existing
outputs are never overwritten without --force.

Exit codes: 0 success, 1 usage error, 2 data/validation error (and any
unexpected exception, as ``error: internal error: ...``), 3 fit error.
Config precedence: flags > config file (--config or $MIXSWEEP_CONFIG) > defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from typing import NamedTuple, Sequence

from . import analysis, fitting, schedule, space, surrogate, trainplan
from .budget import reference_constants
from .errors import (INPUT_ERRORS, FileFormatError, FitError, MixsweepError,
                     UnderdeterminedError, UsageError, ValidationError, input_message)

ENV_CONFIG = "MIXSWEEP_CONFIG"

#: The JSON type ``space.json_field`` reads each config setting as.
_CONFIG_KEYS = {"devices": int, "seed": int, "epsilon": float}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


class _Result(NamedTuple):
    """What one command produces; :func:`run` commits it with :func:`_write_outputs`."""

    outputs: list[tuple[str, str]]  # (path, text)
    stdout: str = ""  # without its final newline; "" writes nothing
    note: str = ""  # the one stderr line, likewise


def _write_outputs(result: _Result, force: bool) -> None:
    """Place every output, then write stdout and the stderr note: all of it, or no output.

    Every path is checked before anything is written: no two outputs may be the
    same file, and no output may be a directory that holds another. Every temp file
    is written before the first rename, and a file about to be replaced is first
    hard-linked to a backup. If a write, a rename or either stream fails, each
    placed output is removed or swapped back for its backup; no temp or backup
    file, and no directory made for an output, outlives the call.
    """
    reals: dict[str, str] = {}  # real path -> output path
    for path, _ in result.outputs:
        real = os.path.realpath(path)
        if real in reals:
            raise UsageError(f"two outputs name the same file {path}")
        reals[real] = path
        if os.path.isdir(path):
            raise ValidationError(f"{path}: is a directory")
        if os.path.exists(path) and not force:
            raise UsageError(f"refusing to overwrite {path} (pass --force)")
    for real, path in reals.items():
        for other_real, other in reals.items():
            if other_real.startswith(real + os.sep):
                raise UsageError(f"output {path} would be the directory of output {other}")
    temps: dict[str, str] = {}
    backups: dict[str, str] = {}
    placed: list[str] = []
    made: list[str] = []  # directories made for the outputs, each after its parent
    try:
        for path, text in result.outputs:
            directory, missing = os.path.dirname(path), []
            while directory and not os.path.isdir(directory):
                missing.insert(0, directory)
                directory = os.path.dirname(directory)
            made += missing
            if missing:
                os.makedirs(missing[-1])
            tmp = temps[path] = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for path, tmp in temps.items():
            if os.path.exists(path):
                backup = f"{path}.bak.{os.getpid()}"
                os.link(path, backup)
                backups[path] = backup
            os.replace(tmp, path)
            placed.append(path)
        for stream, text in ((sys.stdout, result.stdout), (sys.stderr, result.note)):
            if text:
                try:
                    stream.write(text + "\n")
                    stream.flush()  # a closed pipe fails here, while the outputs can be rolled back
                except OSError:  # point it at devnull: its buffered bytes would fail again at exit
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    with contextlib.suppress(OSError, ValueError):  # no descriptor: leave it
                        os.dup2(devnull, stream.fileno())
                    os.close(devnull)
                    raise
        made.clear()  # each now holds an output
    except BaseException:
        for path in placed:
            with contextlib.suppress(OSError):
                if path in backups:
                    os.replace(backups.pop(path), path)
                else:
                    os.remove(path)
        raise
    finally:  # after a success the temps are already renamed away
        for leftover in [*temps.values(), *backups.values()]:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(directory)


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # the csv module writes a float as its repr
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _read(path: str, parse, newline: str | None = None):
    """``parse`` of the open file; every input error is reported as ``<path>: <what>``."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            return parse(fh)
        except INPUT_ERRORS as exc:
            raise FileFormatError(f"{path}: {input_message(exc)}") from exc


def _read_setups(path: str) -> list[space.SetupSpec]:
    return _read(path, lambda fh: list(space.read_jsonl(fh)))


def _read_json(path: str, from_wire):
    """A JSON object file, rebuilt by ``from_wire`` (the artifact's loader)."""

    def parse(fh):
        text = fh.read()  # a UnicodeDecodeError is not reported as invalid JSON
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also: too long an integer, too deep
            raise FileFormatError(f"invalid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise FileFormatError("expected a JSON object")
        return from_wire(obj)

    return _read(path, parse)


def _ingest(args) -> analysis.ResultSet:
    """The ``--results`` measurements bound to the ``--setups`` grid."""
    specs = _read_setups(args.setups)
    records = _read(args.results, lambda fh: list(analysis.read_results_csv(fh)), newline="")
    return analysis.ingest(records, specs)


def _config_from_wire(obj: dict) -> dict:
    """Every key of a config file, each read as its ``_CONFIG_KEYS`` type."""
    unknown = set(obj) - set(_CONFIG_KEYS)
    if unknown:
        raise FileFormatError(f"unknown key(s) {sorted(unknown)}")
    return {key: space.json_field(obj, key, _CONFIG_KEYS[key]) for key in obj}


def _load_config(args) -> dict:
    path = args.config or os.environ.get(ENV_CONFIG)
    return _read_json(path, _config_from_wire) if path else {}


def _resolve(flag_value, config: dict, key: str, default):
    """Flag value, else the config value, else default."""
    return flag_value if flag_value is not None else config.get(key, default)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> _Result:
    ranges = space.default_ranges()
    if args.fc:
        unknown = [f for f in args.fc if f not in ranges]
        if unknown:
            raise UsageError(f"--fc values outside the grid rows: {unknown}")
        ranges = {f_C: ranges[f_C] for f_C in args.fc}
    if args.stages == "single":
        specs = space.enumerate_single_stage(ranges)
    elif args.stages == "two":
        specs = space.enumerate_two_stage(ranges)
    else:
        specs = space.enumerate_all(ranges)
    buf = io.StringIO()
    count = space.write_jsonl(specs, buf)
    return _Result([(args.out, buf.getvalue())], note=f"wrote {count} setups to {args.out}")


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _cmd_plan(args) -> _Result:
    config = _load_config(args)
    devices = _resolve(args.devices, config, "devices", trainplan.DEFAULT_DEVICES)
    base_seed = _resolve(args.base_seed, config, "seed", 0)
    spec = next((s for s in _read_setups(args.setups) if s.id == args.setup_id), None)
    if spec is None:
        raise ValidationError(f"setup id {args.setup_id!r} not found in {args.setups}")
    plan = trainplan.build_training_plan(
        spec.derived(),
        spec.split(),
        devices=devices,
        setup_id=spec.id,
        high_available=args.high_available,
    )
    doc = {
        "schema_version": 1,
        "training_plan": trainplan.plan_to_wire(plan),
        "schedule": schedule.build_schedule(plan, base_seed=base_seed),
    }
    outputs = [(args.out, _json_text(doc))]
    if args.schedule_csv:
        outputs.append((args.schedule_csv, schedule.schedule_csv(plan)))
    return _Result(outputs, note=f"wrote plan for {spec.id} to {args.out}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> _Result:
    config = _load_config(args)
    params = (
        _read_json(args.params, surrogate.params_from_dict)
        if args.params
        else surrogate.SurrogateParams()
    )
    seed = _resolve(args.seed, config, "seed", None)
    specs = _read_setups(args.setups)
    records = surrogate.generate_dataset(
        specs, params, seed, language_pair=args.pair
    )
    text = _csv_text(
        analysis.RESULTS_HEADER,
        ((r.setup_id, r.language_pair, r.val_loss) for r in records),
    )
    return _Result([(args.out, text)], note=f"wrote {len(records)} surrogate records to {args.out}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _analysis_tables(report: dict, directory: str) -> list[tuple[str, str]]:
    """``report.json``'s groups and scale minima as CSV text; each cell is read as its type."""
    field = space.json_field
    approach_rows = (
        (field(group, "C", float), field(group, "D_T", float), category,
         field(entry, "loss", float), field(entry, "setup_id", str))
        for group in field(report, "groups", list)
        for category, entry in sorted(field(group, "minima", dict).items())
    )
    scale_rows = (
        (field(row, "C", float), field(row, "D_T", float), field(row, "f_M", int),
         field(row, "M", float), field(row, "loss", float), field(row, "setup_id", str))
        for row in field(report, "scale_minima", list)
    )
    return [
        (os.path.join(directory, "approach_minima.csv"),
         _csv_text(("C", "D_T", "approach", "min_loss", "setup_id"), approach_rows)),
        (os.path.join(directory, "scale_minima.csv"),
         _csv_text(("C", "D_T", "f_M", "M", "min_loss", "setup_id"), scale_rows)),
    ]


def _cmd_analyze(args) -> _Result:
    config = _load_config(args)
    epsilon = _resolve(args.epsilon, config, "epsilon", 0.0)
    report = analysis.build_report(_ingest(args), pair=args.pair, epsilon=epsilon)
    outputs = [(args.out, _json_text(report))]
    if args.tables_dir:
        outputs += _analysis_tables(report, args.tables_dir)
    rejected = len(report["ingest"]["rejected_unknown"])
    return _Result(
        outputs,
        note=f"analyzed {report['ingest']['n_records']} records "
        f"({rejected} rejected) -> {args.out}",
    )


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _cmd_fit_epochs(args) -> _Result:
    cells = analysis.epoch_minima(_ingest(args), args.approach, args.pair)
    doc = fitting.fit_epoch_cells(cells, args.approach)
    note = f"fitted {len(doc['parameters']['fits'])} epoch quadratics -> {args.out}"
    return _Result([(args.out, _json_text(doc))], note=note)


def _cmd_fit_kstar(args) -> _Result:
    approach, fits, skipped = _read_json(args.epoch_fits, fitting.epoch_fits_from_wire)
    cells = [(fit["f_C"], fit["f_D"], fit["f_k_star"]) for fit in fits]
    try:
        doc = fitting.fit_kstar_model(cells, approach=approach, h_max=args.h_max)
    except UnderdeterminedError as exc:  # too few cells: say where the others went
        raise UnderdeterminedError(f"{exc}; the epoch-fit file holds {len(fits)} cell(s), and "
                                   f"its warnings list {skipped} as skipped") from exc
    return _Result(
        [(args.out, _json_text(doc))],
        note=f"fitted epoch-extrapolation model (shift exponent "
        f"{doc['parameters']['shift_exponent']:.4f}) -> {args.out}",
    )


def _cmd_fit_ratio(args) -> _Result:
    points = [point[1:] for point in analysis.ratio_points(_ingest(args), args.pair)]
    doc = fitting.fit_ratio_power_law(points)
    return _Result(
        [(args.out, _json_text(doc))],
        note=f"fitted ratio power law (exponent {doc['parameters']['exponent']:.4f}, "
        f"{doc['diagnostics']['group_count']} groups) -> {args.out}",
    )


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _cmd_predict(args) -> _Result:
    model = _read_json(args.model_file, fitting.kstar_from_wire)
    value = fitting.predict_kstar(
        model, args.compute, args.target_tokens, round_to_power_of_two=args.round_pow2
    )
    return _Result([], stdout=repr(value))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> _Result:
    ingest = args.results is not None and args.setups is not None
    for flag, value in (("--ratio-fit", args.ratio_fit), ("--pair", args.pair)):
        if value is not None and not ingest:
            raise UsageError(f"{flag} needs --results and --setups")
    if not ingest and (args.results, args.setups) != (None, None):
        raise UsageError("--results and --setups go together")
    # every input is read and every output rendered before anything is written
    outputs, summary = _read_json(args.analysis, lambda report: (
        _analysis_tables(report, args.out_dir), _render_summary(report) if args.summary else ""
    ))
    ref = reference_constants()
    if args.epoch_fits:
        _, fits, _ = _read_json(args.epoch_fits, fitting.epoch_fits_from_wire)
        rows = [
            (math.ldexp(ref.compute, fit["f_C"]), math.ldexp(ref.target_tokens, fit["f_D"]),
             fit["f_k_star"], fit["k_star"], fit["convex"])
            for fit in fits
        ]
        outputs.append((os.path.join(args.out_dir, "epoch_optima.csv"),
                        _csv_text(("C", "D_T", "f_k_star", "k_star", "convex"), rows)))
    if args.kstar_model:
        def extrapolate(obj):  # read with the model, so a prediction's error names the file too
            model = fitting.kstar_from_wire(obj)
            positions = model[2]
            lo = math.floor(min(positions)) - 1
            hi = math.ceil(max(positions)) + 1
            # each grid D_T must be a positive finite float; this also caps the grid at ~4,200 rows
            if hi >= sys.float_info.max_exp or not (
                0.0 < ref.target_tokens * 2.0**lo and ref.target_tokens * 2.0**hi < math.inf
            ):
                raise ValueError(f"knots at f_D {min(positions):.6g} to "
                                 f"{max(positions):.6g} leave the float range of D_T")
            grid = [ref.target_tokens * 2.0 ** (lo + 0.5 * i) for i in range(2 * (hi - lo) + 1)]
            return [(ref.compute, d_t, fitting.predict_kstar(model, ref.compute, d_t))
                    for d_t in grid]

        rows = _read_json(args.kstar_model, extrapolate)
        outputs.append((os.path.join(args.out_dir, "kstar_extrapolation.csv"),
                        _csv_text(("C", "D_T", "k_star"), rows)))
    if ingest:
        points = [point[1:] for point in sorted(analysis.ratio_points(_ingest(args), args.pair))]

        def predict(obj):  # read with the fit, so a prediction's error names the file too
            exponent, intercepts = fitting.ratio_fit_from_wire(obj)
            losses = {}
            for m, d, r, _ in points:
                if (m, d) in intercepts:  # a group the fit dropped gets no prediction
                    try:
                        loss = intercepts[m, d] * r**exponent
                    except OverflowError:
                        loss = math.inf
                    if not 0.0 < loss < math.inf:
                        raise ValueError(f"predicted loss of group (M={m:.6g}, D={d:.6g}) "
                                         f"at r={r:.6g} leaves the float range")
                    losses[m, d, r] = loss
            return losses

        predicted = _read_json(args.ratio_fit, predict) if args.ratio_fit else {}
        rows = [(m, d, r, loss, predicted.get((m, d, r), "")) for m, d, r, loss in points]
        outputs.append((os.path.join(args.out_dir, "ratio_curves.csv"),
                        _csv_text(("M", "D", "r", "val_loss", "predicted_loss"), rows)))
    note = "" if args.summary else f"wrote report tables to {args.out_dir}"
    return _Result(outputs, stdout=summary, note=note)


def _render_summary(report: dict) -> str:
    """The ``--summary`` text. Each value it formats is read as its JSON type.

    A branch reads only the fields it formats, so the nulls the writer may
    write pass: ``D_star`` of a budget without mono-1stage measurements, and
    the interval ends and ratios a scan without a crossing (or without an
    upper crossing) leaves open.
    """
    field = space.json_field
    ingest = report["ingest"]
    lines = [
        f"analysis summary (language pair: {field(report, 'language_pair', str)})",
        f"  records: {field(ingest, 'n_records', int)} accepted, "
        f"{len(field(ingest, 'rejected_unknown', list))} rejected, "
        f"{len(field(ingest, 'duplicates', list))} duplicate keys reduced",
    ]
    compute_optimal = {entry["f_C"]: entry for entry in report["compute_optimal"]}
    for entry in report["thresholds"]:
        f_C = entry["f_C"]
        optimum = compute_optimal.get(f_C, {"D_star": None})
        d_star = None if optimum["D_star"] is None else field(optimum, "D_star", float)
        d_star_text = f"D*={d_star:.4g}" if d_star else "D* unavailable"
        if not entry["crossed"]:
            verdict = "no approach switch found"
        elif entry["open_upper"]:
            verdict = (
                f"multi-2stage wins everywhere measured "
                f"(largest win at D_T={field(entry, 'lower_D_T', float):.4g}; no upper crossing)"
            )
        else:
            lower, upper, ratio_lower, ratio_upper = (
                field(entry, key, float)
                for key in ("lower_D_T", "upper_D_T", "ratio_lower", "ratio_upper")
            )
            verdict = (
                f"switch between D_T={lower:.4g} and {upper:.4g} "
                f"(D*/ratios {ratio_lower:.3g}-{ratio_upper:.3g})"
            )
        lines.append(f"  f_C={f_C} (C={field(entry, 'C', float):.3g}): {d_star_text}; {verdict}")
    fold = field(report["optimal_scale"], "fold_change", dict)
    folds = ", ".join(f"f_C={k}: {field(fold, k, float):.3g}x" for k in fold)
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
    p.add_argument("--params", help="JSON file of surrogate-landscape settings")
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
    pf.set_defaults(handler=_cmd_fit_epochs)

    pf = fit_sub.add_parser("kstar", help="epoch-extrapolation model from epoch fits")
    pf.add_argument("--epoch-fits", required=True, dest="epoch_fits")
    pf.add_argument("--h-max", type=float, dest="h_max")
    pf.add_argument("--out", required=True)
    pf.add_argument("--force", action="store_true")
    pf.set_defaults(handler=_cmd_fit_kstar)

    pf = fit_sub.add_parser("ratio", help="shared-exponent ratio power law")
    pf.add_argument("--results", required=True)
    pf.add_argument("--setups", required=True)
    pf.add_argument("--pair")
    pf.add_argument("--out", required=True)
    pf.add_argument("--force", action="store_true")
    pf.set_defaults(handler=_cmd_fit_ratio)

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
    """Parse, execute and commit one command; returns the process exit code.

    Every failure is one stderr line; a failed command leaves no output.
    """
    try:
        args = build_parser().parse_args(argv)
        _write_outputs(args.handler(args), getattr(args, "force", False))
        return 0
    except UsageError as exc:
        message, code = f"usage error: {exc}", 1
    except FitError as exc:
        message, code = f"fit error: {exc}", 3
    except (MixsweepError, OSError) as exc:
        message, code = f"error: {exc}", 2
    except Exception as exc:  # a bug, not a bad input: still one line, not a traceback
        message, code = f"error: internal error: {type(exc).__name__}: {exc}", 2
    print(message, file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
