"""mixsweep benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {quickstart,plan-batch,replicates}
        [--seed 11] [--seconds 40] [--trace 0|1] [--results FILE]
        [--corrupt ARTIFACT] [--write-reference]

Run from anywhere; it uses the checkout that holds this file and builds
mixsweep from its ``src/``. It prints one row per metric (unit, sample
count, median, quartiles) and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The run is also appended
to the results file (default ``.bench_out/results.jsonl``) that
``compare.py`` reads. Exit codes: 0 all checks passed, 1 an operation or a
check failed, 2 the benchmark could not run.

See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, GATED, PER_LAYER, check_benchmark_json
from tracing import Instrumentation, Tracer, pass_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The console script that `pip install` generates for `mixsweep`.
MIXSWEEP = [sys.executable, "-c", "import sys; from mixsweep.cli import main; sys.exit(main())"]
SETUP_REPEATS = 5
IMPORT_SAMPLES = 3
CHILD_DEADLINE_S = 170.0  # no child may run past this point of the run
# Fixed Python and numpy work that does not use mixsweep (about 25 ms in-process).
CALIBRATION_LOOP = """
import numpy as np
table = {}
for i in range(24000):
    table[i & 4095] = float(repr(i * 0.37)) * 2.0
values = np.arange(96000.0)
for _ in range(5):
    values = np.sqrt(values * values + 1.0)
"""

# Tolerances of the k* value checks (see README.md).
SHIFT_EXPONENT_TOL = 0.01  # a fifth of the fitter's 0.05 coarse grid step
KNOT_TOL = 0.02  # f_D units
RSS_REL_TOL = 1e-9
LEVEL_TOL = 1e-9  # log2(k*) of emitted predictions vs the emitted model
KSTAR_ARTIFACTS = ("kstar.json", "predict.stdout", "report-tables/kstar_extrapolation.csv")

# README Quickstart, verbatim: (stage, arguments, outputs).
QUICKSTART_COMMANDS = (
    ("enumerate", "enumerate --out setups.jsonl", ("setups.jsonl",)),
    ("plan", "plan fC0_fD0_fr0_fM0_fk0 --setups setups.jsonl "
             "--out plan.json --schedule-csv schedule.csv", ("plan.json", "schedule.csv")),
    ("simulate", "simulate --setups setups.jsonl --out results.csv --seed 11", ("results.csv",)),
    ("analyze", "analyze --results results.csv --setups setups.jsonl "
                "--out report.json --tables-dir tables/", ("report.json", "tables")),
    ("fit_epochs", "fit epochs --results results.csv --setups setups.jsonl "
                   "--approach mono-1stage --out epochs.json", ("epochs.json",)),
    ("fit_kstar", "fit kstar --epoch-fits epochs.json --out kstar.json", ("kstar.json",)),
    ("fit_ratio", "fit ratio --results results.csv --setups setups.jsonl --out ratio.json",
     ("ratio.json",)),
    ("predict", "predict kstar --model kstar.json --C 1e18 --DT 2.13e9", ()),
    ("report", "report --analysis report.json --out-dir report-tables/ "
               "--epoch-fits epochs.json --kstar-model kstar.json --ratio-fit ratio.json "
               "--results results.csv --setups setups.jsonl --summary", ("report-tables",)),
)
# About five passes of this many calls fit in a 40 s run; the run reports their median.
PLAN_CALLS_PER_PASS = 28
PAIRS = ("en-sw", "en-yo", "en-ha")
REPLICATES = 4
REPLICATE_PARAMS = {"noise_sigma": 0.02}


# What reading a missing or malformed artifact can raise; a check reports it as a failure.
CHECK_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError)


class BenchError(Exception):
    """The benchmark cannot run (missing program, failed set-up, timeout)."""


class Op:
    """One mixsweep invocation of a pass and what became of it."""

    def __init__(self, stage: str, outputs, capture_stdout: bool = False) -> None:
        self.stage = stage
        self.outputs = tuple(outputs)
        self.capture_stdout = capture_stdout
        self.seconds = 0.0
        self.calibration_s = 0.0  # the calibration loop run just before it
        self.rc = 0
        self.stdout = ""
        self.errors: list[str] = []

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.errors)


class Pass:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.ops: list[Op] = []
        self.seconds = 0.0  # its commands, back to back
        self.calibration_s = 0.0  # the calibration loops run between them
        self.spans: list = []
        self.counts: dict = {}
        self.bytes_written = 0


class Runner:
    """Runs mixsweep commands in-process or as children, with or without tracing."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))

    def child(self, argv, cwd: Path, stdout=subprocess.DEVNULL) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a child process")
        try:
            return subprocess.run(argv, cwd=cwd, env=self.env, stdout=stdout,
                                  stderr=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {shlex.join(argv[3:])}") from exc

    def subprocess_op(self, op: Op, args: list[str], cwd: Path, spans_path: Path | None) -> None:
        launcher = MIXSWEEP if spans_path is None else [
            sys.executable, str(BENCH_DIR / "shim.py"), str(spans_path)]
        start = time.perf_counter()
        proc = self.child(launcher + args, cwd, stdout=subprocess.PIPE)
        op.seconds = time.perf_counter() - start
        op.rc, op.stdout = proc.returncode, proc.stdout
        if proc.returncode != 0:
            op.errors.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def calibrate(self, cwd: Path, in_process: bool) -> float:
        """Wall time of CALIBRATION_LOOP, run the way the pass's commands run.

        A pass runs it before each of its commands, so it samples the
        machine's speed at the moments the pass runs: in-process for an
        in-process workload, in a fresh child (interpreter start and numpy
        import included) for quickstart. ``pipeline_rel`` divides the pass
        time by the summed loop times. The host's drift in speed, up to 1.6x
        within a minute, cancels in that ratio; a change in mixsweep's own
        work does not.
        """
        start = time.perf_counter()
        if in_process:
            exec(CALIBRATION_LOOP, {})
        else:
            proc = self.child([sys.executable, "-c", CALIBRATION_LOOP], cwd)
            if proc.returncode != 0:
                raise BenchError(f"calibration loop failed: {proc.stderr.strip()[-300:]}")
        return time.perf_counter() - start

    def inprocess_op(self, op: Op, args: list[str]) -> None:
        from mixsweep import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            op.rc = cli.run(args)
        op.seconds = time.perf_counter() - start
        op.stdout = out.getvalue()
        if op.rc != 0:
            op.errors.append(f"exit {op.rc}: {err.getvalue().strip()[-300:]}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Quickstart:
    """The README Quickstart, each command a fresh `mixsweep` process."""

    name = "quickstart"
    in_process = False

    def __init__(self, runner: Runner, seed: int) -> None:
        self.runner = runner
        self.seed = seed  # the default grid and noise_sigma=0 make the inputs seed-free

    def setup(self, dest: Path) -> None:
        """Build the program from source and check that it imports."""
        dest.mkdir(parents=True)
        proc = self.runner.child([sys.executable, "-m", "compileall", "-q", str(SRC / "mixsweep")],
                                 dest)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-300:]}")
        fresh_import(self.runner, dest)

    def run_pass(self, pass_dir: Path, traced: bool, spans_dir: Path) -> Pass:
        result = Pass(traced)
        for i, (stage, args, outputs) in enumerate(QUICKSTART_COMMANDS):
            op = Op(stage, outputs, capture_stdout=stage in ("predict", "report"))
            spans_path = spans_dir / f"{i}.json" if traced else None
            op.calibration_s = self.runner.calibrate(pass_dir, in_process=False)
            self.runner.subprocess_op(op, shlex.split(args), pass_dir, spans_path)
            result.ops.append(op)
        if traced:
            for i in range(len(QUICKSTART_COMMANDS)):
                path = spans_dir / f"{i}.json"
                if path.exists():
                    child = json.loads(path.read_text())
                    path.unlink()
                    result.spans.extend(child["spans"])
                    for key, n in child["counts"].items():
                        result.counts[key] = result.counts.get(key, 0) + n
        return result

    def check_first(self, pass_dir: Path, result: Pass, artifacts: dict) -> None:
        reference = json.loads(REFERENCE.read_text())
        by_name = {op.stage: op for op in result.ops}
        for name, digest in reference["digests"].items():
            if name not in artifacts:
                _owner(name, result.ops).errors.append(f"{name}: missing")
            elif artifacts[name][0] != digest:
                op = result.ops[artifacts[name][1]]
                op.errors.append(f"{name}: sha256 differs from perfbench/reference.json")
        try:
            _check_kstar(pass_dir, reference, by_name)
        except CHECK_ERRORS as exc:
            by_name["fit_kstar"].errors.append(f"k* outputs unreadable: {exc!r}")


class PlanBatch:
    """In-process `plan --schedule-csv` calls for a seeded sample of setup ids."""

    name = "plan-batch"
    in_process = True

    def __init__(self, runner: Runner, seed: int) -> None:
        self.runner = runner
        self.seed = seed
        self.setups = None
        self.ids: list[str] = []

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        self.setups = dest / "setups.jsonl"
        _setup_op(self.runner, ["enumerate", "--out", str(self.setups)])
        self.ids = stratified_sample(self.setups, PLAN_CALLS_PER_PASS, self.seed)

    def run_pass(self, pass_dir: Path, traced: bool, spans_dir: Path) -> Pass:
        result = Pass(traced)
        for i, setup_id in enumerate(self.ids):
            plan, rows = f"{i:02d}.plan.json", f"{i:02d}.schedule.csv"
            op = Op("plan", (plan, rows))
            op.calibration_s = self.runner.calibrate(pass_dir, in_process=True)
            self.runner.inprocess_op(op, [
                "plan", setup_id, "--setups", str(self.setups),
                "--out", str(pass_dir / plan), "--schedule-csv", str(pass_dir / rows)])
            result.ops.append(op)
        return result

    def check_first(self, pass_dir: Path, result: Pass, artifacts: dict) -> None:
        for op in result.ops:
            try:
                op.errors.extend(check_schedule(pass_dir / op.outputs[0], pass_dir / op.outputs[1]))
            except CHECK_ERRORS as exc:
                op.errors.append(f"unreadable output: {exc!r}")


class Replicates:
    """Per-pair analyze/fit/report over a 63,000-row results file with replicates."""

    name = "replicates"
    in_process = True

    def __init__(self, runner: Runner, seed: int) -> None:
        self.runner = runner
        self.seed = seed
        self.inputs = None

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        setups, params = dest / "setups.jsonl", dest / "params.json"
        _setup_op(self.runner, ["enumerate", "--out", str(setups)])
        params.write_text(json.dumps(REPLICATE_PARAMS))
        rng = random.Random(self.seed)
        with open(dest / "results.csv", "w", encoding="utf-8", newline="") as out:
            for pair in PAIRS:
                for _ in range(REPLICATES):
                    part = dest / "part.csv"
                    _setup_op(self.runner, [
                        "simulate", "--setups", str(setups), "--out", str(part),
                        "--seed", str(rng.randrange(2**31)), "--pair", pair,
                        "--params", str(params), "--force"])
                    with open(part, encoding="utf-8", newline="") as fh:
                        header = fh.readline()
                        if out.tell() == 0:
                            out.write(header)
                        shutil.copyfileobj(fh, out)
                    part.unlink()
        self.inputs = dest

    def run_pass(self, pass_dir: Path, traced: bool, spans_dir: Path) -> Pass:
        data = ["--results", str(self.inputs / "results.csv"),
                "--setups", str(self.inputs / "setups.jsonl"), "--pair"]
        result = Pass(traced)
        for pair in PAIRS:
            report = str(pass_dir / f"report-{pair}.json")
            for stage, args, outputs in (
                ("analyze", ["analyze", *data, pair, "--out", report], (f"report-{pair}.json",)),
                ("fit_epochs", ["fit", "epochs", *data, pair,
                                "--out", str(pass_dir / f"epochs-{pair}.json")],
                 (f"epochs-{pair}.json",)),
                ("fit_ratio", ["fit", "ratio", *data, pair,
                               "--out", str(pass_dir / f"ratio-{pair}.json")],
                 (f"ratio-{pair}.json",)),
                ("report", ["report", "--analysis", report, "--out-dir",
                            str(pass_dir / f"tables-{pair}"), *data, pair],
                 (f"tables-{pair}",)),
            ):
                op = Op(stage, outputs)
                op.calibration_s = self.runner.calibrate(pass_dir, in_process=True)
                self.runner.inprocess_op(op, args)
                result.ops.append(op)
        return result

    def check_first(self, pass_dir: Path, result: Pass, artifacts: dict) -> None:
        expected_rows = len(PAIRS) * REPLICATES * _count_lines(self.inputs / "setups.jsonl")
        for op in result.ops:
            if op.stage == "analyze":
                try:
                    report = json.loads((pass_dir / op.outputs[0]).read_text())
                    op.errors.extend(check_replicate_report(report, expected_rows))
                except CHECK_ERRORS as exc:
                    op.errors.append(f"unreadable output: {exc!r}")


WORKLOAD_TYPES = {cls.name: cls for cls in (Quickstart, PlanBatch, Replicates)}


def _setup_op(runner: Runner, args: list[str]) -> None:
    op = Op("setup", ())
    runner.inprocess_op(op, args)
    if op.failed:
        raise BenchError(f"set-up command {args[0]} failed: {op.errors}")


def _count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def stratified_sample(setups: Path, k: int, seed: int) -> list[str]:
    """k setup ids, one uniformly from each of k equal strata of the grid.

    Every setup is equally likely to be drawn. The strata are taken in the
    order of D_total / C^(1/3), which tracks the schedule length (the global
    batch grows about as C^(1/3)), so each seed draws a similar mix of short
    and long schedules and the pass time varies little from seed to seed.
    """
    with open(setups, encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh if line.strip()]
    objs.sort(key=lambda o: (o["derived"]["D_total"] / o["derived"]["C"] ** (1 / 3), o["id"]))
    rng = random.Random(seed)
    n = len(objs)
    return [objs[rng.randrange(i * n // k, (i + 1) * n // k)]["id"] for i in range(k)]


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def _owner(name: str, ops: list[Op]) -> Op:
    """The op whose declared outputs include artifact ``name``."""
    return next((op for op in ops if any(name == o or name.startswith(o + "/")
                                         for o in op.outputs)), ops[0])


def check_schedule(plan_path: Path, csv_path: Path) -> list[str]:
    """Schedule accounting of one plan, recomputed from the emitted files."""
    plan = json.loads(plan_path.read_text())
    steps = {stage["index"]: stage["steps"] for stage in plan["training_plan"]["stages"]}
    rows: dict[int, list[tuple[str, float]]] = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["batch_index", "stage", "source", "tokens"]:
            return [f"{csv_path.name}: bad header"]
        for _, stage, source, tokens in reader:
            rows.setdefault(int(stage), []).append((source, float(tokens)))
    errors = []
    for stage in plan["schedule"]["stages"]:
        index, batch = stage["index"], stage["interleave"]["batch_tokens"]
        stage_rows = rows.get(index, [])
        total = math.fsum(tokens for _, tokens in stage_rows)
        if total != stage["total_tokens"]:
            errors.append(f"{csv_path.name} stage {index}: tokens sum {total!r} "
                          f"!= total_tokens {stage['total_tokens']!r}")
        if len(stage_rows) != steps.get(index):
            errors.append(f"{csv_path.name} stage {index}: {len(stage_rows)} rows "
                          f"!= {steps.get(index)} steps")
        targets = sum(1 for source, _ in stage_rows if source == "target")
        if abs(targets - stage["interleave"]["ratio"] * len(stage_rows)) > 1:
            errors.append(f"{csv_path.name} stage {index}: {targets} target rows, "
                          f"expected ratio x rows within one batch of {batch} tokens")
    return errors


def check_replicate_report(report: dict, expected_rows: int) -> list[str]:
    ingest = report["ingest"]
    errors = []
    if ingest["n_input"] != expected_rows:
        errors.append(f"ingest.n_input {ingest['n_input']} != {expected_rows}")
    keys = expected_rows // REPLICATES
    extras = [entry["extra"] for entry in ingest["duplicates"]]
    if len(extras) != keys or any(extra != REPLICATES - 1 for extra in extras):
        errors.append(f"expected {keys} (id, pair) keys with {REPLICATES - 1} duplicates each")
    order = ("multi-2stage", "multi-1stage", "mono-1stage")
    for group in report["groups"]:
        losses = [group["minima"][c]["loss"] for c in order if c in group["minima"]]
        if losses != sorted(losses):
            errors.append(f"group f_C={group['f_C']} f_D={group['f_D']}: "
                          "minima not ordered multi-2stage <= multi-1stage <= mono-1stage")
    return errors


def kstar_level(model: dict, compute: float, target_tokens: float, reference: dict) -> float:
    """log2 k* of an emitted kstar model, evaluated independently of mixsweep."""
    params = model["parameters"]
    x = (math.log2(target_tokens / reference["reference_target_tokens"])
         - params["shift_exponent"] * math.log2(compute / reference["reference_compute"]))
    knots = sorted((k["f_D"], k["h"]) for k in params["knots"])  # ascending f_D
    if x <= knots[0][0]:
        (x0, y0), (x1, y1) = knots[0], knots[1]
    elif x >= knots[-1][0]:
        (x0, y0), (x1, y1) = knots[-2], knots[-1]
    else:
        j = next(j for j in range(1, len(knots)) if x <= knots[j][0])
        (x0, y0), (x1, y1) = knots[j - 1], knots[j]
    return max(y0 + (y1 - y0) * (x - x0) / (x1 - x0), 0.0)


def _check_kstar(pass_dir: Path, reference: dict, by_name: dict) -> None:
    ref = reference["kstar"]
    fit_op, predict_op, report_op = by_name["fit_kstar"], by_name["predict"], by_name["report"]
    model = json.loads((pass_dir / "kstar.json").read_text())
    params = model["parameters"]
    positions = [k["f_D"] for k in params["knots"]]
    shift, rss = params["shift_exponent"], model["diagnostics"]["rss"]
    if abs(shift - ref["shift_exponent"]) > SHIFT_EXPONENT_TOL:
        fit_op.errors.append(f"shift exponent {shift} not within {SHIFT_EXPONENT_TOL} "
                             f"of {ref['shift_exponent']}")
    if len(positions) != len(ref["positions"]) or any(
            abs(p - q) > KNOT_TOL for p, q in zip(positions, ref["positions"])):
        fit_op.errors.append(f"knot positions not within {KNOT_TOL} of the reference")
    if rss > ref["rss"] * (1 + RSS_REL_TOL):
        fit_op.errors.append(f"k* RSS {rss} above the reference {ref['rss']}")
    try:
        predicted = float(predict_op.stdout.strip())
        if abs(math.log2(predicted) - kstar_level(model, 1e18, 2.13e9, reference)) > LEVEL_TOL:
            predict_op.errors.append(f"predict kstar printed {predicted}, not the model's value")
    except ValueError:
        predict_op.errors.append(f"predict kstar printed {predict_op.stdout!r}")
    with open(pass_dir / "report-tables/kstar_extrapolation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    lo, hi = math.floor(min(positions)) - 1, math.ceil(max(positions)) + 1
    grid = [lo + 0.5 * i for i in range(int(round((hi - lo) / 0.5)) + 1)]
    if rows[0] != ["C", "D_T", "k_star"] or len(rows) != len(grid) + 1:
        report_op.errors.append("kstar_extrapolation.csv: wrong header or row count")
        return
    for f_D, (c, d_t, k) in zip(grid, rows[1:]):
        expected_dt = reference["reference_target_tokens"] * 2.0**f_D
        c, d_t, k = float(c), float(d_t), float(k)
        if (c != reference["reference_compute"] or abs(d_t / expected_dt - 1) > 1e-12
                or abs(math.log2(k) - kstar_level(model, c, d_t, reference)) > LEVEL_TOL):
            report_op.errors.append(f"kstar_extrapolation.csv: row at f_D={f_D} disagrees "
                                    "with kstar.json")
            return


def artifact_digests(pass_dir: Path, result: Pass) -> dict[str, tuple[str, int]]:
    """sha256 of every output of the pass: name -> (digest, index of the op that made it)."""
    digests = {}
    for index, op in enumerate(result.ops):
        for output in op.outputs:
            path = pass_dir / output
            files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
            for file in files:
                if file.exists():
                    name = file.relative_to(pass_dir).as_posix()
                    digests[name] = (hashlib.sha256(file.read_bytes()).hexdigest(), index)
        if op.capture_stdout:
            digests[f"{op.stage}.stdout"] = (hashlib.sha256(op.stdout.encode()).hexdigest(), index)
    return digests


def check_same(reference: dict, digests: dict, result: Pass) -> None:
    """Determinism: every artifact of a pass is byte-identical to the first pass's."""
    for name, (digest, index) in reference.items():
        if name not in digests:
            result.ops[index].errors.append(f"{name}: missing in a later pass")
        elif digests[name][0] != digest:
            result.ops[digests[name][1]].errors.append(f"{name}: differs from the first pass")


def bytes_written(pass_dir: Path, result: Pass) -> int:
    total = 0
    for op in result.ops:
        for output in op.outputs:
            path = pass_dir / output
            files = path.rglob("*") if path.is_dir() else [path]
            total += sum(p.stat().st_size for p in files if p.is_file())
    return total


def corrupt(path: Path) -> None:
    """Flip one bit of the middle byte of an artifact (to prove the gate)."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def write_reference(pass_dir: Path, digests: dict) -> None:
    from mixsweep.budget import reference_constants

    model = json.loads((pass_dir / "kstar.json").read_text())
    ref = reference_constants()
    doc = {
        "about": "Quickstart artifacts of the default grid; k* artifacts are checked by value.",
        "digests": {name: d for name, (d, _) in sorted(digests.items())
                    if name not in KSTAR_ARTIFACTS},
        "kstar": {
            "shift_exponent": model["parameters"]["shift_exponent"],
            "positions": [k["f_D"] for k in model["parameters"]["knots"]],
            "rss": model["diagnostics"]["rss"],
        },
        "reference_compute": ref.compute,
        "reference_target_tokens": ref.target_tokens,
    }
    REFERENCE.write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def fresh_import(runner: Runner, cwd: Path, *flags: str) -> tuple[float, str]:
    """Wall time and stderr of `import mixsweep.cli` in a fresh interpreter."""
    start = time.perf_counter()
    proc = runner.child([sys.executable, *flags, "-c", "import mixsweep.cli"], cwd)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"import mixsweep.cli failed: {proc.stderr.strip()[-300:]}")
    return seconds, proc.stderr


def import_profile(runner: Runner, cwd: Path) -> tuple[list[float], list[float]]:
    """-X importtime totals: `mixsweep.cli` cumulative, and self time of scipy modules."""
    total, scipy_total = [], []
    for _ in range(IMPORT_SAMPLES):
        cli_us = scipy_us = 0
        for line in fresh_import(runner, cwd, "-X", "importtime")[1].splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the column header
            if module.rstrip() == " mixsweep.cli":  # top level: no indentation
                cli_us = int(cumulative_us)
            if module.strip().split(".")[0] == "scipy":
                scipy_us += int(self_us)
        total.append(cli_us / 1e6)
        scipy_total.append(scipy_us / 1e6)
    return total, scipy_total


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def machine_note(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def measure(workload, runner: Runner, args, work: Path) -> dict:
    """Set up, warm up, run the timed passes and check every artifact."""
    setup_times = []
    for i in range(SETUP_REPEATS):
        dest = work / f"setup-{i}"
        start = time.perf_counter()
        workload.setup(dest)
        setup_times.append(time.perf_counter() - start)
    spans_dir = work / "spans"
    spans_dir.mkdir()
    tracer = Tracer()

    def run_pass(index: int, traced: bool) -> tuple[Pass, Path, dict]:
        pass_dir = work / f"pass-{index}"
        pass_dir.mkdir()
        if traced and workload.in_process:
            with Instrumentation(tracer):
                result = workload.run_pass(pass_dir, traced, spans_dir)
            result.spans, result.counts = tracer.take()
        else:
            result = workload.run_pass(pass_dir, traced, spans_dir)
        result.seconds = math.fsum(op.seconds for op in result.ops)
        result.calibration_s = math.fsum(op.calibration_s for op in result.ops)
        return result, pass_dir, artifact_digests(pass_dir, result)

    # Untimed warm-up pass; its artifacts are the reference of every later pass.
    warm, warm_dir, reference = run_pass(0, False)
    if args.write_reference:
        write_reference(warm_dir, reference)
        return {}
    if args.corrupt:
        corrupt(warm_dir / args.corrupt)
        reference = artifact_digests(warm_dir, warm)
    workload.check_first(warm_dir, warm, reference)
    shutil.rmtree(warm_dir)

    # Timed passes: a traced run needs one untraced and two traced passes;
    # then passes continue while the next is expected to end within --seconds.
    plan = [False, True, True] if args.trace else [False]
    passes: list[Pass] = []
    elapsed = 0.0
    while True:
        traced = plan.pop(0) if plan else bool(args.trace)
        result, pass_dir, digests = run_pass(len(passes) + 1, traced)
        check_same(reference, digests, result)
        result.bytes_written = bytes_written(pass_dir, result)
        shutil.rmtree(pass_dir)
        passes.append(result)
        elapsed += result.seconds + result.calibration_s
        if not plan and elapsed + statistics.median(
                p.seconds + p.calibration_s for p in passes) > args.seconds:
            break
    return {"setup": setup_times, "warm": warm, "passes": passes}


def end_to_end(workload, runner: Runner, measured: dict, work: Path) -> dict:
    passes = measured["passes"]
    metrics = {
        "setup_s": summary(measured["setup"]),
        "pipeline_s": summary([p.seconds for p in passes]),
        "pipeline_rel": summary([p.seconds / p.calibration_s for p in passes]),
    }
    stages: dict[str, list[float]] = {}
    for p in passes:
        for op in p.ops:
            stages.setdefault(op.stage, []).append(op.seconds)
    for stage, seconds in stages.items():
        metrics[f"stage.{stage}_s"] = summary(seconds)
    if workload.name == "plan-batch":
        plans = sorted(stages["plan"])
        p95 = statistics.quantiles(plans, n=20)[18] if len(plans) > 1 else plans[0]
        metrics["plan_p95_s"] = {"value": p95, "n": len(plans), "q1": p95, "q3": p95,
                                 "beyond": sum(1 for s in plans if s > p95)}
    if workload.name == "quickstart":
        wall = [fresh_import(runner, work)[0] for _ in range(IMPORT_SAMPLES)]
        metrics["cli_import_s"] = summary(wall)
    rss = peak_rss_mib(children=not workload.in_process)
    metrics["peak_rss_mb"] = {"value": rss, "n": 1, "q1": rss, "q3": rss}
    return metrics


def per_layer(runner: Runner, measured: dict, work: Path, mismatches: list[str]) -> dict:
    passes = measured["passes"]
    traced = [p for p in passes if p.traced]
    rows = []
    for p in traced:
        row = pass_metrics(p.spans, p.counts)
        row["cli.bytes_written"] = p.bytes_written
        row["cli.nonzero_exits"] = sum(1 for op in p.ops if op.rc != 0)
        rows.append(row)
    metrics = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        metrics[name] = summary(values)
        if PER_LAYER[name][0] in ("count", "bytes"):  # exact: every traced pass must agree
            if len(set(values)) != 1:
                mismatches.append(f"trace self-check: {name} differs between passes {values}")
            metrics[name]["value"] = values[0]
    total, scipy_total = import_profile(runner, work)
    metrics["cli.import_s"] = summary(total)
    metrics["cli.import_scipy_s"] = summary(scipy_total)
    untraced = statistics.median(p.seconds / p.calibration_s for p in passes if not p.traced)
    overhead = [p.seconds / p.calibration_s / untraced for p in traced]
    metrics["trace.overhead_ratio"] = summary(overhead)
    return {name: metrics[name] for name in PER_LAYER}


def print_table(metrics: dict, units: dict) -> None:
    print(f"{'metric':34} {'unit':6} {'n':>4} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, m in metrics.items():
        extra = f"  ({m['beyond']} beyond)" if "beyond" in m else ""
        print(f"{name:34} {units[name]:6} {m['n']:>4} {m['value']:>14.6g} "
              f"{m['q1']:>14.6g} {m['q3']:>14.6g}{extra}")


def write_trace(path: Path, workload: str, seed: int, passes: list[Pass]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for index, p in enumerate(passes):
            if p.traced:
                for span in p.spans:
                    fh.write(json.dumps({"workload": workload, "seed": seed, "pass": index,
                                         "span": span}) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TYPES))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time; passes run while the next fits in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                        help="JSON Lines file each run is appended to")
    parser.add_argument("--corrupt", metavar="ARTIFACT",
                        help="flip one byte of this warm-up artifact; the run must then fail")
    parser.add_argument("--write-reference", action="store_true",
                        help="quickstart only: record perfbench/reference.json and stop")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    for var in BLAS_VARS:  # one BLAS thread here and in every child, set before numpy loads
        os.environ[var] = "1"
    os.environ.pop("MIXSWEEP_CONFIG", None)
    try:
        check_benchmark_json(json.loads((ROOT / "BENCHMARK.json").read_text()))
        if not (SRC / "mixsweep" / "cli.py").is_file():
            raise BenchError(f"no mixsweep source under {SRC}")
        if args.write_reference and args.workload != "quickstart":
            raise BenchError("--write-reference applies to the quickstart workload")
    except (OSError, ValueError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    runner = Runner(started + CHILD_DEADLINE_S)
    workload = WORKLOAD_TYPES[args.workload](runner, args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    sys.path.insert(0, str(SRC))
    try:
        if workload.in_process:
            import mixsweep.cli  # noqa: F401 - import cost stays out of the timed passes
        measured = measure(workload, runner, args, work)
        if args.write_reference:
            print(f"wrote {REFERENCE}", file=sys.stderr)
            return 0
        mismatches: list[str] = []
        if args.trace:
            metrics = per_layer(runner, measured, work, mismatches)
            units = {name: PER_LAYER[name][0] for name in metrics}
            write_trace(OUT / f"trace-{args.workload}-{args.seed}.jsonl", args.workload,
                        args.seed, measured["passes"])
        else:
            metrics = end_to_end(workload, runner, measured, work)
            units = {name: END_TO_END[name][0] for name in END_TO_END}
    except (OSError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in [measured["warm"], *measured["passes"]] for op in p.ops]
    failures = [f"{op.stage}: {error}" for op in ops for error in op.errors] + mismatches
    # A traced run counts its count self-check as one more operation.
    attempted = len(ops) + args.trace
    failed = sum(1 for op in ops if op.failed) + bool(mismatches)
    if not args.trace:
        metrics["failed_ratio"] = {"value": failed / attempted, "n": attempted,
                                   "q1": failed / attempted, "q3": failed / attempted}
    note = machine_note(args.seed)
    print(f"mixsweep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={len(measured['passes'])}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in note.items() if k != "blas_threads")
          + f" blas_threads={note['blas_threads'][BLAS_VARS[0]]}")
    if args.trace:
        traced = [p.seconds / p.calibration_s for p in measured["passes"] if p.traced]
        plain = [p.seconds / p.calibration_s for p in measured["passes"] if not p.traced]
        print(f"tracing overhead: traced pipeline_rel {statistics.median(traced):.4f} / "
              f"untraced pipeline_rel {statistics.median(plain):.4f}")
    print_table(metrics, units)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": note, "correct": not failures,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    names = PER_LAYER if args.trace else GATED
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                    for name in names},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
