import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mixsweep
from mixsweep.budget import reference_constants
from mixsweep import cli, fitting
from mixsweep.cli import run


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A completed enumerate -> simulate -> analyze -> fit pipeline."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "setups": str(root / "setups.jsonl"),
        "results": str(root / "results.csv"),
        "report": str(root / "report.json"),
        "tables": str(root / "tables"),
        "epochs": str(root / "epochs.json"),
        "kstar": str(root / "kstar.json"),
        "ratio": str(root / "ratio.json"),
        "plan": str(root / "plan.json"),
        "sched": str(root / "sched.csv"),
        "rpt": str(root / "rpt"),
    }
    assert run(["enumerate", "--out", paths["setups"]]) == 0
    assert run(["simulate", "--setups", paths["setups"], "--out", paths["results"]]) == 0
    assert (
        run(
            [
                "analyze",
                "--results", paths["results"],
                "--setups", paths["setups"],
                "--out", paths["report"],
                "--tables-dir", paths["tables"],
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "fit", "epochs",
                "--results", paths["results"],
                "--setups", paths["setups"],
                "--approach", "mono-1stage",
                "--out", paths["epochs"],
            ]
        )
        == 0
    )
    assert run(["fit", "kstar", "--epoch-fits", paths["epochs"], "--out", paths["kstar"]]) == 0
    assert (
        run(
            [
                "fit", "ratio",
                "--results", paths["results"],
                "--setups", paths["setups"],
                "--out", paths["ratio"],
            ]
        )
        == 0
    )
    return paths


def test_round_trip_artifacts_exist(workspace):
    for key in ("setups", "results", "report", "epochs", "kstar", "ratio"):
        assert os.path.exists(workspace[key])
    assert os.path.exists(os.path.join(workspace["tables"], "approach_minima.csv"))
    assert os.path.exists(os.path.join(workspace["tables"], "scale_minima.csv"))


def test_analyze_finds_threshold_on_default_fixture(workspace):
    report = json.load(open(workspace["report"]))
    assert report["thresholds"], "expected threshold entries per budget"
    assert all(entry["crossed"] for entry in report["thresholds"])
    for entry in report["thresholds"]:
        upper = entry["upper_D_T"] if entry["upper_D_T"] is not None else entry["lower_D_T"]
        assert upper < entry["D_star"]


def test_enumerate_reference_row_line_count(workspace):
    with open(workspace["setups"], encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh]
    singles = [o for o in objs if o["f_C"] == 0 and "r1" not in o]
    assert len(singles) == 134


def test_enumerate_budget_restriction(tmp_path):
    out = str(tmp_path / "restricted.jsonl")
    assert run(["enumerate", "--out", out, "--fc", "-4", "-2"]) == 0
    with open(out, encoding="utf-8") as fh:
        budgets = {json.loads(line)["f_C"] for line in fh}
    assert budgets == {-4, -2}
    assert run(["enumerate", "--out", str(tmp_path / "x.jsonl"), "--fc", "3"]) == 1


def test_plan_emits_plan_and_schedule(workspace):
    code = run(
        [
            "plan", "fC0_fD0_fr0_fM0_fk0",
            "--setups", workspace["setups"],
            "--out", workspace["plan"],
            "--schedule-csv", workspace["sched"],
        ]
    )
    assert code == 0
    doc = json.load(open(workspace["plan"]))
    assert doc["training_plan"]["batch"]["global_batch_seqs"] == 64
    assert doc["schedule"]["epochs"] == 1
    with open(workspace["sched"]) as fh:
        header = fh.readline().strip()
    assert header == "batch_index,stage,source,tokens"


def test_plan_devices_override(workspace, tmp_path):
    out = str(tmp_path / "plan4.json")
    assert (
        run(
            [
                "plan", "fC0_fD0_fr0_fM0_fk0",
                "--setups", workspace["setups"],
                "--out", out,
                "--devices", "4",
            ]
        )
        == 0
    )
    doc = json.load(open(out))
    assert doc["training_plan"]["batch"]["devices"] == 4


def test_plan_unknown_setup_id(workspace, tmp_path):
    code = run(
        ["plan", "fC0_fD0_fr9_fM0_fk0", "--setups", workspace["setups"],
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_config_file_and_env(workspace, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"devices": 2}))
    out = str(tmp_path / "plan2.json")
    assert (
        run(
            ["--config", str(config), "plan", "fC0_fD0_fr0_fM0_fk0",
             "--setups", workspace["setups"], "--out", out]
        )
        == 0
    )
    assert json.load(open(out))["training_plan"]["batch"]["devices"] == 2
    # env fallback
    monkeypatch.setenv("MIXSWEEP_CONFIG", str(config))
    out2 = str(tmp_path / "plan3.json")
    assert (
        run(
            ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"], "--out", out2]
        )
        == 0
    )
    assert json.load(open(out2))["training_plan"]["batch"]["devices"] == 2
    # flags beat config
    out3 = str(tmp_path / "plan5.json")
    assert (
        run(
            ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"],
             "--out", out3, "--devices", "8"]
        )
        == 0
    )
    assert json.load(open(out3))["training_plan"]["batch"]["devices"] == 8


@pytest.mark.parametrize("devices", ["0", "-2"])
def test_plan_rejects_non_positive_devices(workspace, tmp_path, capsys, devices):
    out = tmp_path / "x.json"
    code = run(
        ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"],
         "--out", str(out), "--devices", devices]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: devices must be a positive integer, got {devices}\n"
    assert not out.exists()


def test_plan_rejects_non_integer_config_devices(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"devices": "x"}))
    code = run(
        ["--config", str(config), "plan", "fC0_fD0_fr0_fM0_fk0",
         "--setups", workspace["setups"], "--out", str(tmp_path / "x.json")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {config}: devices must be an integer, got 'x'\n"


def test_config_rejects_unknown_keys(workspace, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"divices": 2}))
    code = run(
        ["--config", str(config), "plan", "fC0_fD0_fr0_fM0_fk0",
         "--setups", workspace["setups"], "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_refuses_overwrite_without_force(workspace):
    assert run(["enumerate", "--out", workspace["setups"]]) == 1
    assert run(["enumerate", "--out", workspace["setups"], "--force"]) == 0


def test_unknown_flag_is_usage_error(workspace, tmp_path):
    assert run(["enumerate", "--out", str(tmp_path / "s.jsonl"), "--bogus"]) == 1
    assert run(["frobnicate"]) == 1


def test_missing_input_is_data_error(tmp_path):
    code = run(
        ["analyze", "--results", str(tmp_path / "none.csv"),
         "--setups", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "r.json")]
    )
    assert code == 2


def test_malformed_results_is_data_error(workspace, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("setup_id,language_pair,val_loss\nfC0_fD0_fr0_fM0_fk0,x,-3\n")
    code = run(
        ["analyze", "--results", str(bad), "--setups", workspace["setups"],
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 2


def test_single_budget_kstar_is_fit_error(workspace, tmp_path):
    doc = json.load(open(workspace["epochs"]))
    doc["parameters"]["fits"] = [f for f in doc["parameters"]["fits"] if f["f_C"] == -4]
    trimmed = tmp_path / "epochs_one_budget.json"
    trimmed.write_text(json.dumps(doc))
    code = run(
        ["fit", "kstar", "--epoch-fits", str(trimmed), "--out", str(tmp_path / "k.json")]
    )
    assert code == 3


def test_analyze_requires_pair_when_ambiguous(workspace, tmp_path):
    mixed = tmp_path / "mixed.csv"
    with open(workspace["results"]) as fh:
        lines = fh.read().splitlines()
    doubled = lines[:3] + [line.replace(",surrogate,", ",other,") for line in lines[1:3]]
    mixed.write_text("\n".join(doubled) + "\n")
    out = str(tmp_path / "r.json")
    assert (
        run(["analyze", "--results", str(mixed), "--setups", workspace["setups"], "--out", out])
        == 2
    )
    assert (
        run(
            ["analyze", "--results", str(mixed), "--setups", workspace["setups"],
             "--out", out, "--pair", "other"]
        )
        == 0
    )


def test_predict_kstar_at_training_point(tmp_path, capsys):
    # hand-built noiseless model: shift 0.5, linear knots from (0, 0) to (4, -6)
    levels = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    doc = {
        "model_type": "kstar",
        "parameters": {
            "approach": "mono-1stage",
            "shift_exponent": 0.5,
            "knots": [{"h": h, "f_D": -1.5 * h} for h in levels],
        },
        "diagnostics": {"rss": 0.0, "n_points": 9, "warnings": []},
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    ref = reference_constants()
    target = ref.target_tokens * 2.0**-3
    code = run(
        ["predict", "kstar", "--model", str(model_path),
         "--C", repr(ref.compute), "--DT", repr(target)]
    )
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(4.0, rel=1e-9)


@pytest.mark.parametrize(
    "compute, target", [("nan", "2.13e9"), ("inf", "2.13e9"), ("1e18", "nan")]
)
def test_predict_kstar_rejects_non_finite(workspace, capsys, compute, target):
    code = run(
        ["predict", "kstar", "--model", workspace["kstar"], "--C", compute, "--DT", target]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: compute and target tokens must be positive and finite")
    assert captured.err.count("\n") == 1


def test_predict_kstar_rejects_a_subnormal_budget(workspace, capsys):
    code = run(["predict", "kstar", "--model", workspace["kstar"], "--C", "5e-324", "--DT", "2e9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: compute and target tokens too small to scale, got 5e-324, 2000000000.0\n"
    )


@pytest.mark.parametrize("command", ["predict", "report"])
def test_kstar_prediction_beyond_the_float_range_is_data_error(
    workspace, tmp_path, capsys, command
):
    # a valid model whose first segment is so steep that f_D = -2 extrapolates to 2**~20000
    knots = [{"h": 0.0, "f_D": 1.0}, {"h": 1.0, "f_D": 0.0}, {"h": 2.0, "f_D": -1e-4}]
    path = _model_file(tmp_path, "k.json", {
        "model_type": "kstar",
        "parameters": {"approach": "mono-1stage", "shift_exponent": 0.5, "knots": knots},
        "diagnostics": {"rss": 0.0, "n_points": 3, "warnings": []},
    })
    ref = reference_constants()
    out = tmp_path / "rpt"
    code = run({
        "predict": ["predict", "kstar", "--model", path, "--C", repr(ref.compute),
                    "--DT", repr(ref.target_tokens / 4)],
        "report": ["report", "--analysis", workspace["report"], "--out-dir", str(out),
                   "--kstar-model", path],
    }[command])
    captured = capsys.readouterr()
    named = f"{path}: " if command == "report" else ""
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {named}predicted k* 2**2e+04 leaves the float range\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "positions, span",
    [((1030.0, 1029.0), "1029 to 1030"), ((5.0, -1e12), "-1e+12 to 5")],
    ids=["overflow", "underflow"],
)
def test_kstar_extrapolation_beyond_the_float_range_is_data_error(
    workspace, tmp_path, capsys, positions, span
):
    # 2.0**1031 overflows; knots 1e12 apart would ask for a grid of ~4e12 rows
    knots = [{"h": 0.0, "f_D": positions[0]}, {"h": 0.5, "f_D": positions[1]}]
    path = _model_file(tmp_path, "k.json", {
        "model_type": "kstar",
        "parameters": {"approach": "mono-1stage", "shift_exponent": 0.5, "knots": knots},
        "diagnostics": {"rss": 0.0, "n_points": 3, "warnings": []},
    })
    out = tmp_path / "rpt"
    code = run(["report", "--analysis", workspace["report"], "--out-dir", str(out),
                "--kstar-model", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: knots at f_D {span} leave the float range of D_T\n"
    assert not out.exists()


def test_report_tables_and_summary(workspace, tmp_path, capsys):
    code = run(
        [
            "report",
            "--analysis", workspace["report"],
            "--out-dir", workspace["rpt"],
            "--epoch-fits", workspace["epochs"],
            "--kstar-model", workspace["kstar"],
            "--ratio-fit", workspace["ratio"],
            "--results", workspace["results"],
            "--setups", workspace["setups"],
            "--summary",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "analysis summary" in out
    for name in (
        "approach_minima.csv",
        "scale_minima.csv",
        "epoch_optima.csv",
        "kstar_extrapolation.csv",
        "ratio_curves.csv",
    ):
        assert os.path.exists(os.path.join(workspace["rpt"], name)), name


def test_simulate_seed_changes_noise(workspace, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"noise_sigma": 0.01}))
    a, b, c = (str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv"))
    for out, seed in ((a, "1"), (b, "1"), (c, "2")):
        assert (
            run(
                ["simulate", "--setups", workspace["setups"], "--out", out,
                 "--params", str(params), "--seed", seed]
            )
            == 0
        )
    assert open(a).read() == open(b).read()
    assert open(a).read() != open(c).read()


def test_scipy_stays_off_the_import_path(workspace, tmp_path):
    # only the epoch fit needs numpy, and no command needs scipy: the Quickstart's
    # other eight commands, the k* and ratio fits included, run in one process that
    # loads neither, then `fit epochs` loads numpy but still not scipy
    commands = [
        "enumerate --out setups.jsonl",
        "plan fC0_fD0_fr0_fM0_fk0 --setups setups.jsonl --out plan.json "
        "--schedule-csv schedule.csv",
        "simulate --setups setups.jsonl --out results.csv --seed 11",
        "analyze --results results.csv --setups setups.jsonl --out report.json "
        "--tables-dir tables/",
        f"fit kstar --epoch-fits {workspace['epochs']} --out kstar.json",
        "fit ratio --results results.csv --setups setups.jsonl --out ratio.json",
        f"predict kstar --model {workspace['kstar']} --C 1e18 --DT 2.13e9",
        f"report --analysis report.json --out-dir report-tables/ --epoch-fits "
        f"{workspace['epochs']} --kstar-model {workspace['kstar']} --ratio-fit "
        f"{workspace['ratio']} --results results.csv --setups setups.jsonl --summary",
    ]
    fits = [
        "fit epochs --results results.csv --setups setups.jsonl --approach mono-1stage "
        "--out epochs.json",
    ]
    script = (
        "import sys, mixsweep, mixsweep.cli\n"
        "def check(step):\n"
        "    for name in ('scipy', 'numpy'):\n"
        "        assert name not in sys.modules, (name, step)\n"
        "check('import')\n"
        f"for args in {commands!r}:\n"
        "    assert mixsweep.cli.run(args.split()) == 0, args\n"
        "    check(args.split()[0])\n"
        f"for args in {fits!r}:\n"
        "    assert mixsweep.cli.run(args.split()) == 0, args\n"
        "    assert 'scipy' not in sys.modules, args\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixsweep.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report-tables" / "kstar_extrapolation.csv").exists()
    assert (tmp_path / "kstar.json").exists()
    assert (tmp_path / "ratio.json").exists()


def _other_interpreters():
    """``python3.10`` ... ``python3.14`` on PATH that start, keyed by a version not this one's."""
    found = {}
    for minor in range(10, 15):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            proc = subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = tuple(map(int, proc.stdout.split())) if proc.returncode == 0 else None
        if version and version != sys.version_info[:2]:
            found.setdefault(version, exe)
    return found


def test_fits_write_the_same_bytes_on_every_interpreter(workspace, tmp_path):
    # the k* and ratio fits add left to right, so the built-in sum's compensated
    # rounding (3.12 on) cannot move a bit; neither fit loads numpy
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10-3.14 interpreter on PATH")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixsweep.__file__)),
               PYTHONDONTWRITEBYTECODE="1")
    commands = {
        "kstar": ["fit", "kstar", "--epoch-fits", workspace["epochs"]],
        "ratio": ["fit", "ratio", "--results", workspace["results"],
                  "--setups", workspace["setups"]],
    }
    for version, exe in sorted(interpreters.items()):
        for name, args in commands.items():
            out = tmp_path / f"{name}-{version[0]}.{version[1]}.json"
            proc = subprocess.run([exe, "-m", "mixsweep.cli", *args, "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, (exe, proc.stderr)
            with open(workspace[name], "rb") as fh:
                assert out.read_bytes() == fh.read(), (exe, name)


# README Quickstart, as the benchmark runs it, without the k* steps (their
# outputs are checked by value, not by digest): (arguments, stdout is an artifact).
_QUICKSTART = (
    ("enumerate --out setups.jsonl", False),
    ("plan fC0_fD0_fr0_fM0_fk0 --setups setups.jsonl --out plan.json "
     "--schedule-csv schedule.csv", False),
    ("simulate --setups setups.jsonl --out results.csv --seed 11", False),
    ("analyze --results results.csv --setups setups.jsonl --out report.json "
     "--tables-dir tables/", False),
    ("fit epochs --results results.csv --setups setups.jsonl --approach mono-1stage "
     "--out epochs.json", False),
    ("fit ratio --results results.csv --setups setups.jsonl --out ratio.json", False),
    ("report --analysis report.json --out-dir report-tables/ --epoch-fits epochs.json "
     "--ratio-fit ratio.json --results results.csv --setups setups.jsonl --summary", True),
)


def test_quickstart_artifacts_match_benchmark_digests(tmp_path, monkeypatch, capsys):
    reference = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")
    with open(reference, encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXSWEEP_CONFIG", raising=False)
    actual = {}
    for args, stdout_is_artifact in _QUICKSTART:
        capsys.readouterr()
        assert run(args.split()) == 0, args
        if stdout_is_artifact:
            actual["report.stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for path in tmp_path.rglob("*"):
        if path.is_file():
            name = path.relative_to(tmp_path).as_posix()
            actual[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert actual == digests


def test_quickstart_kstar_fit_is_within_the_benchmark_bounds(workspace):
    # kstar.json has no digest: perfbench/run.py checks it by value, with these bounds
    reference = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")
    with open(reference, encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(workspace["epochs"], "rb") as fh:  # the Quickstart's epochs.json
        assert hashlib.sha256(fh.read()).hexdigest() == bench["digests"]["epochs.json"]
    expected = bench["kstar"]
    doc = json.load(open(workspace["kstar"]))
    positions = [knot["f_D"] for knot in doc["parameters"]["knots"]]
    assert abs(doc["parameters"]["shift_exponent"] - expected["shift_exponent"]) <= 0.01
    assert len(positions) == len(expected["positions"])
    assert all(abs(p - q) <= 0.02 for p, q in zip(positions, expected["positions"]))
    assert doc["diagnostics"]["rss"] <= expected["rss"] * (1 + 1e-9)


def _mixsweep_globals():
    return {
        (module_name, key): value
        for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "mixsweep" and module is not None
        for key, value in vars(module).items()
    }


def test_benchmark_tracer_names_resolve_and_are_restored(workspace, tmp_path, monkeypatch):
    # perfbench's tracer wraps mixsweep functions by name, so a rename in src breaks it
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    originals = {}
    for module, attr, *_ in tracing._CALLS + tracing._GENERATORS:
        owner, name = tracing._resolve(importlib.import_module(f"mixsweep.{module}"), attr)
        assert hasattr(owner, name), f"mixsweep.{module}.{attr}"
        originals[owner, name] = getattr(owner, name)
    bound, finders = _mixsweep_globals(), list(sys.meta_path)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        argv = ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"],
                "--out", str(tmp_path / "plan.json"), "--schedule-csv", str(tmp_path / "s.csv")]
        assert run(argv) == 0
    names = {span[2] for span in tracer.spans}
    assert {"schedule.build_schedule", "trainplan.build_training_plan"} <= names
    assert all(getattr(*key) is original for key, original in originals.items())
    now = _mixsweep_globals()
    assert all(now[key] is value for key, value in bound.items())
    assert sys.meta_path == finders


def test_benchmark_tracer_reads_what_ingest_returns(workspace, tmp_path, monkeypatch):
    # the tracer counts duplicates from ingest(...).summary.duplicates, so a change to
    # that shape fails every traced analyze, fit epochs, fit ratio and report
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        argv = ["analyze", "--results", workspace["results"], "--setups", workspace["setups"],
                "--out", str(tmp_path / "report.json")]
        assert run(argv) == 0
    assert tracer.counts["analysis.duplicates_reduced"] == 0
    assert tracer.counts["analysis.for_pair_scans"] > 0


def _model_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _bad_artifact_argv(case, tmp_path, workspace):
    """argv of one command reading one malformed artifact (``case`` names it)."""
    out = str(tmp_path / "out")
    epochs = json.load(open(workspace["epochs"]))
    if case == "predict-kstar-no-parameters":
        model = _model_file(tmp_path, "k.json", {"model_type": "kstar"})
        return ["predict", "kstar", "--model", model, "--C", "1e18", "--DT", "2e9"]
    if case == "fit-kstar-no-parameters":
        fits = _model_file(tmp_path, "e.json", {"model_type": "epoch_quadratics"})
        return ["fit", "kstar", "--epoch-fits", fits, "--out", out]
    if case == "fit-kstar-fit-without-f_D":
        del epochs["parameters"]["fits"][0]["f_D"]
        fits = _model_file(tmp_path, "e.json", epochs)
        return ["fit", "kstar", "--epoch-fits", fits, "--out", out]
    report = ["report", "--analysis", workspace["report"], "--out-dir", out]
    if case == "report-analysis-empty":
        return ["report", "--analysis", _model_file(tmp_path, "a.json", {}), "--out-dir", out]
    if case == "report-epoch-fits-no-parameters":
        del epochs["parameters"]
        return report + ["--epoch-fits", _model_file(tmp_path, "e.json", epochs)]
    if case == "report-epoch-fits-wrong-type":
        return report + ["--epoch-fits", workspace["kstar"]]
    if case == "report-kstar-model-wrong-type":
        return report + ["--kstar-model", workspace["ratio"]]
    assert case == "report-ratio-fit-empty-parameters"
    ratio = _model_file(
        tmp_path, "r.json", {"model_type": "ratio_power_law", "parameters": {}, "diagnostics": {}}
    )
    return report + ["--ratio-fit", ratio, "--results", workspace["results"],
                     "--setups", workspace["setups"]]


@pytest.mark.parametrize(
    "case",
    [
        "predict-kstar-no-parameters",
        "fit-kstar-no-parameters",
        "fit-kstar-fit-without-f_D",
        "report-analysis-empty",
        "report-epoch-fits-no-parameters",
        "report-epoch-fits-wrong-type",
        "report-kstar-model-wrong-type",
        "report-ratio-fit-empty-parameters",
    ],
)
def test_malformed_artifact_is_data_error(workspace, tmp_path, capsys, case):
    argv = _bad_artifact_argv(case, tmp_path, workspace)
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # report renders everything in memory first, so a failed run writes nothing
    assert not (tmp_path / "out").exists()


def test_report_writes_nothing_when_a_later_input_is_bad(workspace, tmp_path, capsys):
    out = tmp_path / "rpt"
    bad = _model_file(tmp_path, "r.json", {"model_type": "ratio_power_law"})
    code = run(
        ["report", "--analysis", workspace["report"], "--out-dir", str(out),
         "--epoch-fits", workspace["epochs"], "--ratio-fit", bad,
         "--results", workspace["results"], "--setups", workspace["setups"]]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, config",
    [(["--epsilon", "nan"], None), (["--epsilon", "-1"], None), ([], {"epsilon": "nan"})],
)
def test_analyze_rejects_bad_epsilon(workspace, tmp_path, capsys, flag, config):
    argv = ["analyze", "--results", workspace["results"], "--setups", workspace["setups"],
            "--out", str(tmp_path / "r.json"), *flag]
    if config is not None:
        argv = ["--config", _model_file(tmp_path, "config.json", config), *argv]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    if config is None:
        assert err.startswith("error: epsilon must be finite and >= 0") and err.count("\n") == 1
    else:
        assert err == f"error: {argv[1]}: epsilon must be a finite number, got 'nan'\n"
    assert not (tmp_path / "r.json").exists()


def test_fit_kstar_rejects_nan_h_max(workspace, tmp_path, capsys):
    code = run(
        ["fit", "kstar", "--epoch-fits", workspace["epochs"], "--h-max", "nan",
         "--out", str(tmp_path / "k.json")]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: h_max must be finite and in [0.5, 32], got nan\n"


def test_fit_kstar_rejects_h_max_above_its_bound(workspace, tmp_path, capsys):
    # 1e9 used to ask numpy for 14.9 GiB of levels and die with a traceback
    code = run(
        ["fit", "kstar", "--epoch-fits", workspace["epochs"], "--h-max", "1e9",
         "--out", str(tmp_path / "k.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: h_max must be finite and in [0.5, 32], got 1000000000.0\n"
    assert not (tmp_path / "k.json").exists()


@pytest.mark.parametrize(
    "value, code, message",
    [
        (math.nan, 2, "error: {path}: f_k_star must be a finite number, got nan"),
        # finite, but 2**1e308 is no float, so the cell's k_star cannot equal it
        (1e308, 2, "error: {path}: cell (f_C={f_C}, f_D={f_D}): k_star must be 2**f_k_star"),
    ],
    ids=["nan", "overflow"],
)
def test_fit_kstar_never_writes_a_non_finite_model(
    workspace, tmp_path, capsys, value, code, message
):
    epochs = json.load(open(workspace["epochs"]))
    epochs["parameters"]["fits"][0]["f_k_star"] = value
    out = tmp_path / "kstar.json"
    # the suite turns a RuntimeWarning into an error, which would escape run() instead
    path = _model_file(tmp_path, "e.json", epochs)
    assert run(["fit", "kstar", "--epoch-fits", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=path, **epochs["parameters"]["fits"][0]))
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _edit_kstar_model(doc, case):
    params = doc["parameters"]
    knots = params["knots"]
    if case == "nan-shift-exponent":
        params["shift_exponent"] = math.nan
    elif case == "nan-level":
        knots[3]["h"] = math.nan
    elif case == "infinite-position":
        knots[0]["f_D"] = math.inf
    else:
        assert case == "swapped-levels"
        knots[1]["h"], knots[2]["h"] = knots[2]["h"], knots[1]["h"]


@pytest.mark.parametrize("command", ["predict", "report"])
@pytest.mark.parametrize(
    "case, message",
    [
        pytest.param(case, message, id=case)
        for case, message in [
            ("nan-shift-exponent", "shift_exponent must be a finite number, got nan"),
            ("nan-level", "h must be a finite number, got nan"),
            ("infinite-position", "f_D must be a finite number, got inf"),
            ("swapped-levels", "knot levels must be finite and strictly increasing"),
        ]
    ],
)
def test_kstar_model_with_bad_knots_is_data_error(
    workspace, tmp_path, capsys, command, case, message
):
    doc = json.load(open(workspace["kstar"]))
    _edit_kstar_model(doc, case)
    model = _model_file(tmp_path, "k.json", doc)
    out = tmp_path / "out"
    if command == "predict":
        argv = ["predict", "kstar", "--model", model, "--C", "1e19", "--DT", "2.13e9"]
    else:
        argv = ["report", "--analysis", workspace["report"], "--out-dir", str(out),
                "--kstar-model", model]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {model}: {message}\n"
    assert not out.exists()


#: The field set to a bad value in each JSON file the CLI reads: (number field, integer field).
_JSON_FIELDS = {
    "setups": ("f_M", "f_M"),
    "config": ("epsilon", "seed"),
    "params": ("noise_sigma", "seed"),
    "kstar": ("shift_exponent", "n_points"),
    "ratio": ("exponent", "group_count"),
    "epochs": ("f_k_star", "f_C"),
}

#: JSON text of each bad value; "float-for-int" goes into the integer field.
_BAD_JSON = {
    "numeric-string": '"1"', "bool": "true", "float-for-int": "2.5", "nan": "NaN", "1e400": "1e400",
}


def _file_with_bad_field(name, field, value, tmp_path, workspace):
    """(argv, path) of a command reading file ``name`` whose ``field`` holds JSON text ``value``."""
    out = str(tmp_path / "out")
    doc = {field: "@"}
    if name == "setups":
        doc = {"f_r": 0, "f_M": 0, "f_k": 0, "f_C": 0} | doc
    elif name in ("kstar", "ratio", "epochs"):
        doc = json.load(open(workspace[name]))
        section = "parameters" if field in ("shift_exponent", "exponent") else "diagnostics"
        target = doc["parameters"]["fits"][0] if name == "epochs" else doc[section]
        target[field] = "@"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc).replace('"@"', value))
    path = str(path)
    ingest = ["--results", workspace["results"], "--setups", workspace["setups"]]
    simulate = ["simulate", "--setups", workspace["setups"], "--out", out]
    argv = {
        "setups": ["simulate", "--setups", path, "--out", out],
        "config": ["--config", path] + (
            ["analyze", *ingest, "--out", out] if field == "epsilon" else simulate
        ),
        "params": simulate + ["--params", path],
        "kstar": ["predict", "kstar", "--model", path, "--C", "1e18", "--DT", "2e9"],
        "ratio": ["report", "--analysis", workspace["report"], "--out-dir", out,
                  "--ratio-fit", path, *ingest],
        "epochs": ["fit", "kstar", "--epoch-fits", path, "--out", out],
    }[name]
    return argv, path


@pytest.mark.parametrize("bad", list(_BAD_JSON))
@pytest.mark.parametrize("name", list(_JSON_FIELDS))
def test_mistyped_json_field_is_data_error(workspace, tmp_path, capsys, name, bad):
    field = _JSON_FIELDS[name][bad == "float-for-int"]
    argv, path = _file_with_bad_field(name, field, _BAD_JSON[bad], tmp_path, workspace)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {path}: ") and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["setups", "kstar"])
def test_json_integer_too_long_to_convert_is_data_error(workspace, tmp_path, capsys, name):
    # json.loads raises a plain ValueError, not a JSONDecodeError, past 4,300 digits
    field = _JSON_FIELDS[name][1]
    argv, path = _file_with_bad_field(name, field, "1" * 5000, tmp_path, workspace)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and "invalid JSON" in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["setups", "kstar"])
def test_json_nested_too_deep_is_data_error(workspace, tmp_path, capsys, name):
    # json.loads raises a RecursionError, which is not a ValueError, past ~1,000 levels
    field = _JSON_FIELDS[name][1]
    argv, path = _file_with_bad_field(name, field, "[" * 100000 + "]" * 100000, tmp_path,
                                      workspace)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}: ") and "invalid JSON" in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _model_doc(workspace, tmp_path, name, edit):
    doc = json.load(open(workspace[name]))
    edit(doc)
    return _model_file(tmp_path, f"{name}.json", doc)


def _cell(doc):
    return doc["parameters"]["fits"][0]


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("kstar", lambda d: d["parameters"].update(approach="bogus"),
         "approach must be one of ['mono-1stage', 'multi-2stage'], got 'bogus'"),
        ("kstar", lambda d: d["diagnostics"].update(n_points=-5), "n_points must be >= 0, got -5"),
        ("kstar", lambda d: d["diagnostics"].update(rss=-0.5), "rss must be >= 0, got -0.5"),
        ("kstar", lambda d: d["diagnostics"].update(warnings="abc"),
         "warnings must be a list of strings, got 'abc'"),
        ("ratio", lambda d: d["diagnostics"].update(group_count=-1),
         "group_count must be >= 0, got -1"),
        ("ratio", lambda d: d["diagnostics"].update(warnings=[1]),
         "warnings must be a list of strings, got [1]"),
        # a non-positive intercept wrote negative predicted losses into ratio_curves.csv
        ("ratio", lambda d: d["parameters"]["intercepts"][0].update(L0=-1.0),
         "L0 must be positive, got -1.0"),
        ("ratio", lambda d: d["parameters"]["intercepts"][1].update(M=0.0),
         "M must be positive, got 0.0"),
        ("ratio", lambda d: d["parameters"]["intercepts"][2].update(D=-2e9),
         "D must be positive, got -2000000000.0"),
        ("epochs", lambda d: d["parameters"].update(approach="multi-1stage"),
         "approach must be one of ['mono-1stage', 'multi-2stage'], got 'multi-1stage'"),
        ("epochs", lambda d: _cell(d).update(n_points=-1), "n_points must be >= 0, got -1"),
        ("epochs", lambda d: d["diagnostics"].update(rss=-1.0), "rss must be >= 0, got -1.0"),
        ("epochs", lambda d: d.pop("diagnostics"), "missing field 'diagnostics'"),
    ],
    ids=["kstar-approach", "kstar-n_points", "kstar-rss", "kstar-warnings", "ratio-group_count",
         "ratio-warnings", "ratio-L0", "ratio-M", "ratio-D", "epochs-approach", "epochs-cell-n_points", "epochs-rss",
         "epochs-no-diagnostics"],
)
def test_model_file_fields_are_checked(workspace, tmp_path, capsys, name, edit, message):
    path = _model_doc(workspace, tmp_path, name, edit)
    code = run(_model_argv(name, path, workspace, tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


def _model_argv(name, path, workspace, tmp_path):
    """argv of the command that reads model file ``name`` from ``path``, writing to ``out``."""
    out = str(tmp_path / "out")
    return {
        "kstar": ["predict", "kstar", "--model", path, "--C", "1e18", "--DT", "2e9"],
        "ratio": ["report", "--analysis", workspace["report"], "--out-dir", out,
                  "--ratio-fit", path, "--results", workspace["results"],
                  "--setups", workspace["setups"]],
        "epochs": ["fit", "kstar", "--epoch-fits", path, "--out", out],
    }[name]


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("kstar", lambda d: d["parameters"].update(knots="ab"), "knots must be a list, got 'ab'"),
        ("kstar", lambda d: d.update(parameters=5), "parameters must be an object, got 5"),
        ("kstar", lambda d: d["parameters"].update(knots=[1, 2]),
         "knots[0] must be an object, got 1"),
        ("ratio", lambda d: d["parameters"].update(intercepts=7),
         "intercepts must be a list, got 7"),
        ("epochs", lambda d: d["parameters"].update(fits={"a": 1}),
         "fits must be a list, got {'a': 1}"),
        ("epochs", lambda d: d.update(diagnostics="x"), "diagnostics must be an object, got 'x'"),
    ],
    ids=["knots-string", "parameters-number", "knots-numbers", "intercepts-number",
         "fits-object", "diagnostics-string"],
)
def test_model_file_containers_are_read_as_their_json_type(
    workspace, tmp_path, capsys, name, edit, message
):
    # each printed a TypeError about indexing a str or an int, without the field's name
    path = _model_doc(workspace, tmp_path, name, edit)
    code = run(_model_argv(name, path, workspace, tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["report-ratio-fit", "fit-kstar", "report-epoch-fits"])
def test_model_file_listing_a_group_or_cell_twice_is_data_error(
    workspace, tmp_path, capsys, command
):
    # the last entry silently won: report --ratio-fit predicted losses from the second L0,
    # fit kstar fitted both cells and report --epoch-fits wrote a row for each
    name = "ratio" if command == "report-ratio-fit" else "epochs"
    doc = json.load(open(workspace[name]))
    params = doc["parameters"]
    if name == "ratio":
        first = params["intercepts"][0]
        params["intercepts"].append(first | {"L0": 100.0})
        message = f"group (M={first['M']:.6g}, D={first['D']:.6g}) is listed twice"
    else:
        first = params["fits"][0]
        params["fits"].append(first | {"f_k_star": 0.0, "k_star": 1.0})
        message = f"cell (f_C={first['f_C']}, f_D={first['f_D']}) is listed twice"
    path = _model_file(tmp_path, f"{name}.json", doc)
    argv = _model_argv(name, path, workspace, tmp_path)
    if command == "report-epoch-fits":
        argv = ["report", "--analysis", workspace["report"], "--out-dir", str(tmp_path / "out"),
                "--epoch-fits", path]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit-kstar", "report"])
@pytest.mark.parametrize(
    "factor, value", [("f_C", 100000), ("f_D", -100000)], ids=["compute", "target-tokens"]
)
def test_epoch_cell_beyond_the_float_range_is_data_error(
    workspace, tmp_path, capsys, command, factor, value
):
    path = _model_doc(workspace, tmp_path, "epochs", lambda d: _cell(d).update({factor: value}))
    cell = _cell(json.load(open(path)))
    out = str(tmp_path / "out")
    if command == "fit-kstar":
        argv = ["fit", "kstar", "--epoch-fits", path, "--out", out]
    else:
        argv = ["report", "--analysis", workspace["report"], "--out-dir", out,
                "--epoch-fits", path]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: {path}: cell (f_C={cell['f_C']}, f_D={cell['f_D']}) leaves the float range\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit-kstar", "report"])
@pytest.mark.parametrize(
    "f_k_star, k_star",
    [(400.0, -5.0), (3.0, 0.0), (2.0, 5.0), (2000.0, -5.0), (1e308, 5.0), (-2000.0, 5.0)],
    ids=["negative", "zero", "mismatched", "negative-beyond-the-float-range", "overflow",
         "underflow"],
)
def test_epoch_cell_k_star_must_be_two_to_the_f_k_star(
    workspace, tmp_path, capsys, command, f_k_star, k_star
):
    # report --epoch-fits wrote "400.0,-5.0" into epoch_optima.csv and exited 0
    edit = {"f_k_star": f_k_star, "k_star": k_star}
    path = _model_doc(workspace, tmp_path, "epochs", lambda d: _cell(d).update(edit))
    cell = _cell(json.load(open(path)))
    out = str(tmp_path / "out")
    if command == "fit-kstar":
        argv = ["fit", "kstar", "--epoch-fits", path, "--out", out]
    else:
        argv = ["report", "--analysis", workspace["report"], "--out-dir", out,
                "--epoch-fits", path]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: {path}: cell (f_C={cell['f_C']}, f_D={cell['f_D']}): k_star must be 2**f_k_star, "
        f"positive and finite; got k_star={k_star!r} for f_k_star={f_k_star!r}\n"
    )
    assert not (tmp_path / "out").exists()


def test_model_files_load_and_write_back_byte_identically(workspace):
    # the workspace runs the README Quickstart (its surrogate has no noise, so the seed
    # does not matter); each loader must return exactly what its file holds, and
    # kstar.json must write back unchanged
    text = open(workspace["kstar"]).read()
    doc = json.loads(text)
    assert cli._json_text(doc) == text
    params = doc["parameters"]
    knots = params["knots"]
    assert fitting.kstar_from_wire(doc) == (
        params["shift_exponent"], tuple(k["h"] for k in knots), tuple(k["f_D"] for k in knots)
    )
    doc = json.load(open(workspace["epochs"]))
    params = doc["parameters"]
    assert fitting.epoch_fits_from_wire(doc) == (params["approach"], params["fits"], 0)
    doc = json.load(open(workspace["ratio"]))
    params = doc["parameters"]
    levels = {(e["M"], e["D"]): e["L0"] for e in params["intercepts"]}
    assert len(levels) == len(params["intercepts"])
    assert fitting.ratio_fit_from_wire(doc) == (params["exponent"], levels)


def test_plan_rejects_nan_high_available(workspace, tmp_path, capsys):
    code = run(
        ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"],
         "--out", str(tmp_path / "p.json"), "--high-available", "nan"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: high_available must be a number, got nan\n"


@pytest.mark.parametrize(
    "params",  # (file content, message)
    [
        ({"noise_sigma": "x"}, "noise_sigma must be a finite number, got 'x'"),
        ({"seed": "7", "noise_sigma": 0.02}, "seed must be an integer, got '7'"),
        ({"noise_sigma": True}, "noise_sigma must be a finite number, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"noise_sigma": float("nan")}, "noise_sigma must be a finite number, got nan"),
        ({"model_coeff": 10**400}, f"model_coeff must be a finite number, got {10**400}"),
    ],
)
def test_simulate_rejects_mistyped_params(workspace, tmp_path, capsys, params):
    doc, message = params
    path = _model_file(tmp_path, "params.json", doc)
    code = run(
        ["simulate", "--setups", workspace["setups"], "--out", str(tmp_path / "r.csv"),
         "--params", path]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}: {message}\n"


def test_csv_text_writes_floats_as_repr():
    text = cli._csv_text(
        ("a", "b", "c"), [(0.1, 1e22, 5e-324), (3.0000000000000004, 4096.0, 7), ("x", "", True)]
    )
    assert text == "a,b,c\n0.1,1e+22,5e-324\n3.0000000000000004,4096.0,7\nx,,True\n"


def test_failed_write_leaves_no_temp_file(workspace, tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    code = run(
        ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"],
         "--out", str(tmp_path / "p.json"), "--schedule-csv", str(tmp_path / "s.csv")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot rename ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_failed_second_rename_leaves_no_output(workspace, tmp_path, capsys, monkeypatch):
    real_replace = os.replace
    renames = []

    def second_fails(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError(f"cannot rename {src}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    code = run(
        ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"],
         "--out", str(tmp_path / "p.json"), "--schedule-csv", str(tmp_path / "s.csv")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot rename ") and err.count("\n") == 1
    assert renames == [str(tmp_path / "p.json"), str(tmp_path / "s.csv")]
    assert os.listdir(tmp_path) == []


def test_failed_command_removes_the_directories_it_made(workspace, tmp_path, capsys, monkeypatch):
    (tmp_path / "kept").mkdir()
    real_replace = os.replace

    def second_fails(src, dst):
        if dst.endswith("s.csv"):
            raise OSError(f"cannot rename {src}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    code = run(
        ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"],
         "--out", str(tmp_path / "a" / "b" / "p.json"),
         "--schedule-csv", str(tmp_path / "a" / "b" / "c" / "s.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot rename ")
    assert os.listdir(tmp_path) == ["kept"]


def test_failed_second_rename_with_force_restores_replaced_files(
    workspace, tmp_path, capsys, monkeypatch
):
    plan, rows = tmp_path / "p.json", tmp_path / "s.csv"
    plan.write_text("old plan\n")
    rows.write_text("old schedule\n")
    real_replace = os.replace
    renames = []

    def second_fails(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError(f"cannot rename {src}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    code = run(
        ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", workspace["setups"],
         "--out", str(plan), "--schedule-csv", str(rows), "--force"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot rename ") and err.count("\n") == 1
    assert plan.read_text() == "old plan\n"
    assert rows.read_text() == "old schedule\n"
    assert sorted(os.listdir(tmp_path)) == ["p.json", "s.csv"]


def _run_process(args, cwd, stdout=subprocess.DEVNULL):
    """Exit code and stderr of ``mixsweep args`` in a real process with a buffered stdout.

    Unlike an in-process ``run``, numpy's warnings reach its stderr as a user sees them.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixsweep.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "mixsweep.cli", *args], cwd=cwd, env=env, stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr


def _run_into_closed_pipe(args, cwd):
    """Exit code and stderr of ``mixsweep args`` whose stdout's reader has gone.

    The interpreter's own flush of stdout at exit is covered too.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run_process(args, cwd, stdout=write_end)
    finally:
        os.close(write_end)


def test_fit_epochs_on_overflowing_losses_prints_one_line(workspace, tmp_path):
    # losses near 3e160 square beyond the float range in their cell's fit
    with open(workspace["results"]) as fh:
        header, *rows = fh.readlines()
    for i, row in enumerate(rows):
        setup_id, pair, loss = row.split(",")
        if setup_id.startswith("fC0_fD0_fr0_"):
            rows[i] = f"{setup_id},{pair},{float(loss) * 1e160!r}\n"
    results = tmp_path / "big.csv"
    results.write_text(header + "".join(rows))
    code, err = _run_process(["fit", "epochs", "--results", str(results), "--setups",
                              workspace["setups"], "--out", "epochs.json"], tmp_path)
    assert (code, err.count("\n")) == (0, 1) and "RuntimeWarning" not in err
    assert err.startswith("fitted ")
    text = (tmp_path / "epochs.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    warning = "cell (f_C=0, f_D=0) skipped: losses overflow the fit"
    assert json.loads(text)["diagnostics"]["warnings"] == [warning]
    code, err = _run_process(["fit", "kstar", "--epoch-fits", "epochs.json", "--out", "k.json"],
                             tmp_path)
    assert code == 0 and err.startswith("fitted epoch-extrapolation model")


def test_fit_kstar_on_subnormal_optima_prints_one_line(workspace, tmp_path):
    # log2 k* values within 4e-308 of 0: differences this small make the isotonic
    # seed's edge slopes overflow
    epochs = json.load(open(workspace["epochs"]))
    template = epochs["parameters"]["fits"][0]
    cells = [(-4, -6, 4e-308), (-4, -2, 3e-308), (-2, -5, 2e-308), (-2, 3, 1e-310)]
    epochs["parameters"]["fits"] = [
        template | {"f_C": f_C, "f_D": f_D, "f_k_star": f_k_star, "k_star": 1.0}
        for f_C, f_D, f_k_star in cells
    ]
    _model_file(tmp_path, "e.json", epochs)
    code, err = _run_process(["fit", "kstar", "--epoch-fits", "e.json", "--out", "k.json"],
                             tmp_path)
    assert err.count("\n") == 1 and "RuntimeWarning" not in err
    if code == 0:
        assert err.startswith("fitted epoch-extrapolation model")
        _, _, positions = fitting.kstar_from_wire(json.loads((tmp_path / "k.json").read_text()))
        assert all(map(math.isfinite, positions))
    else:
        assert code == 3 and err.startswith("fit error: ")


@pytest.mark.parametrize("command", ["report", "predict"])
def test_closed_stdout_leaves_no_output(workspace, tmp_path, command):
    out = tmp_path / "rpt"
    args = {
        "report": ["report", "--analysis", workspace["report"], "--out-dir", str(out),
                   "--summary"],
        "predict": ["predict", "kstar", "--model", workspace["kstar"], "--C", "1e18",
                    "--DT", "2.13e9"],
    }[command]
    code, err = _run_into_closed_pipe(args, tmp_path)
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"
    assert os.listdir(tmp_path) == []  # not even the --out-dir it made


def test_closed_stdout_with_force_restores_the_old_tables(workspace, tmp_path):
    out = tmp_path / "rpt"
    out.mkdir()
    old = {"approach_minima.csv": b"old approach\n", "scale_minima.csv": b"old scale\n"}
    for name, data in old.items():
        (out / name).write_bytes(data)
    code, err = _run_into_closed_pipe(
        ["report", "--analysis", workspace["report"], "--out-dir", str(out), "--summary",
         "--force"], tmp_path
    )
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == old


def test_a_non_finite_number_never_reaches_an_artifact(workspace, tmp_path, capsys, monkeypatch):
    doc = {
        "model_type": "ratio_power_law",
        "parameters": {"exponent": math.nan, "intercepts": [{"M": 1.0, "D": 1.0, "L0": 3.0}]},
        "diagnostics": {"rss": 0.0, "n_points": 4, "group_count": 1, "warnings": []},
    }
    monkeypatch.setattr(cli.fitting, "fit_ratio_power_law", lambda points: doc)
    out = tmp_path / "ratio.json"
    code = run(["fit", "ratio", "--results", workspace["results"], "--setups",
                workspace["setups"], "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: internal error: ValueError: Out of range float values are not JSON compliant: nan\n"
    )
    assert not out.exists()


def test_stray_exception_is_one_internal_error_line(workspace, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stray bug")

    monkeypatch.setattr(cli.analysis, "build_report", broken)
    code = run(
        ["analyze", "--results", workspace["results"], "--setups", workspace["setups"],
         "--out", str(tmp_path / "r.json"), "--tables-dir", str(tmp_path / "t")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: internal error: RuntimeError: stray bug\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "args, named",
    [
        (["plan", "fC0_fD0_fr0_fM0_fk0", "--out", "X", "--schedule-csv", "X"], "X"),
        (["plan", "fC0_fD0_fr0_fM0_fk0", "--out", "./X", "--schedule-csv", "X"], "X"),
        (["analyze", "--out", "tb/approach_minima.csv", "--tables-dir", "tb"],
         "tb/approach_minima.csv"),
    ],
    ids=["plan-same-spelling", "plan-dot-slash", "analyze-into-tables-dir"],
)
def test_two_outputs_naming_one_file_is_usage_error(
    workspace, tmp_path, capsys, monkeypatch, args, named
):
    monkeypatch.chdir(tmp_path)
    inputs = ["--setups", workspace["setups"]]
    if args[0] == "analyze":
        inputs += ["--results", workspace["results"]]
    code = run([*args, *inputs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"usage error: two outputs name the same file {named}\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_output_that_is_the_directory_of_another_is_usage_error(
    workspace, tmp_path, capsys, monkeypatch
):
    # the tables would go inside the report file's path: caught before anything is written
    monkeypatch.chdir(tmp_path)
    code = run(["analyze", "--out", "tbx", "--tables-dir", "tbx", "--setups",
                workspace["setups"], "--results", workspace["results"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "usage error: output tbx would be the directory of output tbx/approach_minima.csv\n"
    )
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
def test_directory_as_output_is_data_error(tmp_path, capsys, force):
    directory = tmp_path / "somedir"
    directory.mkdir()
    code = run(["enumerate", "--out", str(directory), *(["--force"] if force else [])])
    assert code == 2
    assert capsys.readouterr().err == f"error: {directory}: is a directory\n"
    assert os.listdir(tmp_path) == ["somedir"]
    assert os.listdir(directory) == []


@pytest.mark.parametrize(
    "value", [1.7, True, "1"], ids=["float", "bool", "string"]
)
def test_setup_factor_must_be_a_json_integer(tmp_path, capsys, value):
    setups = tmp_path / "setups.jsonl"
    setups.write_text(json.dumps({"f_r": value, "f_M": 0, "f_k": 0, "f_C": 0}) + "\n")
    out = tmp_path / "r.csv"
    code = run(["simulate", "--setups", str(setups), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {setups}: line 1: f_r must be an integer, got {value!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "ratios, message",
    [
        ({"r1_frac": "1/0"}, "stage ratio '1/0' has a zero denominator"),
        ({"r1_frac": float("inf")}, "stage ratio must be a \"num/den\" string, got inf"),
        ({"r1_frac": "-1/4"}, "stage ratio '-1/4' is outside [0, 1]"),
        ({"r2_frac": "3/2"}, "stage ratio '3/2' is outside [0, 1]"),
        ({"r1_frac": "1e-3"}, "stage ratio must be a \"num/den\" string, got '1e-3'"),
    ],
    ids=["zero-denominator", "json-infinity", "negative", "above-one", "exponent-form"],
)
def test_setup_stage_ratio_must_be_a_fraction_in_the_unit_interval(
    tmp_path, capsys, ratios, message
):
    wire = {"f_r": 1, "f_M": 0, "f_k": 0, "f_C": 0, "r1_frac": "1/4", "r2_frac": "3/4", **ratios}
    setups = tmp_path / "setups.jsonl"
    setups.write_text(json.dumps(wire).replace("Infinity", "1e400") + "\n")
    out = tmp_path / "r.csv"
    code = run(["simulate", "--setups", str(setups), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {setups}: line 1: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["seed", "devices"])
def test_config_integer_beyond_the_float_range_is_data_error(workspace, tmp_path, capsys, key):
    config = tmp_path / "config.json"
    config.write_text(f'{{"{key}": 1e400}}')
    out = tmp_path / "p.json"
    code = run(
        ["--config", str(config), "plan", "fC0_fD0_fr0_fM0_fk0",
         "--setups", workspace["setups"], "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {config}: {key} must be an integer, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["seed", "devices"])
@pytest.mark.parametrize("value", [2.7, True, "12"], ids=["float", "bool", "string"])
def test_config_integer_must_be_a_json_integer(workspace, tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "p.json"
    code = run(
        ["--config", str(config), "plan", "fC0_fD0_fr0_fM0_fk0",
         "--setups", workspace["setups"], "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {config}: {key} must be an integer, got {value!r}\n"
    assert not out.exists()


def test_setup_ratio_factor_beyond_its_bound_is_data_error(tmp_path, capsys):
    wire = {"f_r": 4097, "f_M": 0, "f_k": 0, "f_C": 0, "r1_frac": "0", "r2_frac": "1/2"}
    setups = tmp_path / "setups.jsonl"
    setups.write_text(json.dumps(wire) + "\n")
    out = tmp_path / "r.csv"
    code = run(["simulate", "--setups", str(setups), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {setups}: line 1: f_r must be in [0, 4096], got 4097\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "factors",
    [{"f_M": -2000}, {"f_k": 2000}, {"f_M": 1000, "f_k": 1100}],
    ids=["model-scale-overflow", "target-tokens-underflow", "epochs-overflow"],
)
def test_simulate_rejects_factors_beyond_the_float_range(tmp_path, capsys, factors):
    wire = {"f_r": 0, "f_M": 0, "f_k": 0, "f_C": 0, **factors}
    setups = tmp_path / "setups.jsonl"
    setups.write_text(json.dumps(wire) + "\n")
    out = tmp_path / "out"
    tuple_text = ", ".join(f"{key}={wire[key]}" for key in ("f_r", "f_M", "f_k", "f_C"))
    # the setup is derived when its line is read, so plan fails on it too
    for argv in (["simulate"], ["plan", "any-id"]):
        code = run([*argv, "--setups", str(setups), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {setups}: line 1: FactorTuple({tuple_text}) leaves the float range\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("command", ["plan", "analyze"])
def test_duplicate_setup_id_is_data_error(workspace, tmp_path, capsys, command):
    with open(workspace["setups"]) as fh:
        lines = [next(fh) for _ in range(3)]
    setups = tmp_path / "setups.jsonl"
    setups.write_text("".join(lines + [lines[1]]))
    duplicate = json.loads(lines[1])["id"]
    out = tmp_path / "out.json"
    if command == "plan":
        argv = ["plan", duplicate, "--setups", str(setups), "--out", str(out)]
    else:
        argv = ["analyze", "--results", workspace["results"], "--setups", str(setups),
                "--out", str(out)]
    code = run(argv)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {setups}: line 4: duplicate setup id {duplicate!r} (first on line 2)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"approach": "multi-2stage", "f_D": 42, "derived": {"k": 999}},
         "setup approach 'multi-2stage' does not match fields (mono-1stage)"),
        ({"f_D": 42}, "setup f_D 42 does not match fields (-7)"),
        ({"f_D": -7.0}, "setup f_D -7.0 does not match fields (-7)"),
        ({"approach": None}, "setup approach None does not match fields (mono-1stage)"),
    ],
    ids=["approach-and-f_D", "f_D", "float-f_D", "null-approach"],
)
@pytest.mark.parametrize("command", ["plan", "analyze"])
def test_setup_approach_and_f_D_must_match_the_factors(
    workspace, tmp_path, capsys, command, edit, message
):
    with open(workspace["setups"]) as fh:
        lines = [next(fh) for _ in range(3)]
    wire = json.loads(lines[1])
    assert (wire["approach"], wire["f_D"]) == ("mono-1stage", -7)
    lines[1] = json.dumps({**wire, **edit}) + "\n"
    setups = tmp_path / "setups.jsonl"
    setups.write_text("".join(lines))
    out = tmp_path / "out.json"
    if command == "plan":
        argv = ["plan", wire["id"], "--setups", str(setups), "--out", str(out)]
    else:
        argv = ["analyze", "--results", workspace["results"], "--setups", str(setups),
                "--out", str(out)]
    code = run(argv)
    assert code == 2
    assert capsys.readouterr().err == f"error: {setups}: line 2: {message}\n"
    assert not out.exists()


def test_setup_derived_block_is_not_read(workspace, tmp_path):
    with open(workspace["setups"]) as fh:
        line = next(fh)
    wire = json.loads(line)
    wire["derived"]["k"] = 999
    plans = []
    for name, text in (("plain", line), ("edited", json.dumps(wire) + "\n")):
        setups, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
        setups.write_text(text)
        assert run(["plan", wire["id"], "--setups", str(setups), "--out", str(out)]) == 0
        plans.append(out.read_text())
    assert plans[0] == plans[1]


def test_report_ratio_fit_needs_results_and_setups(workspace, tmp_path, capsys):
    doc = json.load(open(workspace["ratio"]))
    doc["parameters"]["intercepts"][0]["L0"] = -1.0
    bad = _model_file(tmp_path, "ratio.json", doc)
    out = tmp_path / "rpt"
    base = ["report", "--analysis", workspace["report"], "--out-dir", str(out), "--ratio-fit", bad]
    for extra in ([], ["--results", workspace["results"]], ["--setups", workspace["setups"]]):
        code = run(base + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "usage error: --ratio-fit needs --results and --setups\n"
        assert not out.exists()


def test_simulate_rejects_noise_sigma_beyond_its_bound(workspace, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"noise_sigma": 1e308}))
    out = tmp_path / "r.csv"
    code = run(["simulate", "--setups", workspace["setups"], "--out", str(out),
                "--params", str(params)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {params}: noise_sigma must be in [0, 64], got 1e+308\n"
    assert not out.exists()


def _results_subset(workspace, tmp_path, keep):
    """A copy of the workspace results holding only the rows whose setup id ``keep`` accepts."""
    with open(workspace["results"]) as fh:
        header, *rows = fh.readlines()
    path = tmp_path / "subset.csv"
    path.write_text(header + "".join(row for row in rows if keep(row.split(",")[0])))
    return str(path)


def test_fit_ratio_drops_a_single_ratio_group_with_a_warning(workspace, tmp_path):
    # the f_M = 4, D = 2.13e9 group keeps only its f_r = 1 setup
    dropped = {"fC-4_fD-2_fr2_fM4_fk0", "fC-4_fD-3_fr3_fM4_fk0"}
    results = _results_subset(workspace, tmp_path, lambda setup_id: setup_id not in dropped)
    out = tmp_path / "ratio.json"
    code = run(["fit", "ratio", "--results", results, "--setups", workspace["setups"],
                "--out", str(out)])
    assert code == 0
    full = json.load(open(workspace["ratio"]))["diagnostics"]
    diagnostics = json.load(open(out))["diagnostics"]
    warning = "group (M=2.93422e+07, D=2.13004e+09) dropped: single ratio value"
    assert warning not in full["warnings"]
    assert set(diagnostics["warnings"]) == {*full["warnings"], warning}
    assert diagnostics["group_count"] == full["group_count"] - 1
    assert diagnostics["n_points"] == full["n_points"] - 3


def test_fit_ratio_without_a_usable_group_is_fit_error(workspace, tmp_path, capsys):
    # ratio 1 only: every (M, D) group has a single ratio value
    results = _results_subset(workspace, tmp_path, lambda setup_id: "_fr0_" in setup_id)
    out = tmp_path / "ratio.json"
    code = run(["fit", "ratio", "--results", results, "--setups", workspace["setups"],
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("fit error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("first, second", [("1e300", "1e-300"), ("1e-300", "1e300")],
                         ids=["overflow", "underflow"])
def test_fit_ratio_whose_intercept_leaves_the_float_range_is_fit_error(
    workspace, tmp_path, capsys, first, second
):
    # the pooled exponent is about +-1e3, so the other group's ratio-1 loss is exp(+-1.7e3):
    # OverflowError as an internal error, or an "L0": 0.0 that report then refused
    results = tmp_path / "results.csv"
    results.write_text(
        "setup_id,language_pair,val_loss\n"
        f"fC0_fD0_fr0_fM0_fk0,surrogate,{first}\n"
        f"fC0_fD-1_fr1_fM0_fk0,surrogate,{second}\n"
        "fC0_fD-1_fr2_fM1_fk0,surrogate,1\n"
        "fC0_fD-2_fr3_fM1_fk0,surrogate,1\n"
    )
    out = tmp_path / "ratio.json"
    code = run(["fit", "ratio", "--results", str(results), "--setups", workspace["setups"],
                "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "fit error: ratio-1 loss of group (M=2.34737e+08, D=4.26008e+09) leaves the float range\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "exponent, level, message",
    [(-1e308, None, "(M=2.34737e+08, D=2.13004e+09) at r=0.5"),
     (-300.0, 1e200, "(M=1.46711e+07, D=4.26008e+09) at r=0.25"),
     (1100.0, None, "(M=2.34737e+08, D=2.13004e+09) at r=0.5")],
    ids=["power-overflows", "product-overflows", "power-underflows"],
)
def test_report_ratio_prediction_beyond_the_float_range_is_data_error(
    workspace, tmp_path, capsys, exponent, level, message
):
    # these raised OverflowError as an internal error, or wrote inf or 0.0 into ratio_curves.csv
    def edit(doc):
        doc["parameters"]["exponent"] = exponent
        if level is not None:
            doc["parameters"]["intercepts"][0]["L0"] = level

    path = _model_doc(workspace, tmp_path, "ratio", edit)
    out = tmp_path / "out"
    code = run(["report", "--analysis", workspace["report"], "--out-dir", str(out),
                "--ratio-fit", path, "--results", workspace["results"],
                "--setups", workspace["setups"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: predicted loss of group {message} leaves the float range\n"
    )
    assert not out.exists()


def test_fit_epochs_skips_a_cell_with_fewer_than_three_epoch_values(workspace, tmp_path):
    # the mono cell (f_C=-4, f_D=-7) keeps only f_k = 7 and 8
    def keep(setup_id):
        cell = setup_id.startswith("fC-4_fD-7_fr0_")
        return not (cell and setup_id[-4:] in {"_fk4", "_fk5", "_fk6"})

    results = _results_subset(workspace, tmp_path, keep)
    out = tmp_path / "epochs.json"
    code = run(["fit", "epochs", "--results", results, "--setups", workspace["setups"],
                "--out", str(out)])
    assert code == 0
    doc = json.load(open(out))
    warning = "cell (f_C=-4, f_D=-7) skipped: 2 epoch value(s) < 3"
    assert doc["diagnostics"]["warnings"] == [warning]
    cells = {(fit["f_C"], fit["f_D"]) for fit in doc["parameters"]["fits"]}
    assert (-4, -7) not in cells
    assert len(cells) == len(json.load(open(workspace["epochs"]))["parameters"]["fits"]) - 1


def _results_with_flat_cells(workspace, tmp_path, in_cell):
    """The workspace results with a near-flat convex loss curve in each cell ``in_cell`` accepts.

    The curve 3 - 1e-7 f_k + 1e-13 f_k**2 has its vertex at f_k = 5e5, beyond 2**f_k's range.
    """
    with open(workspace["results"]) as fh:
        header, *rows = fh.readlines()
    for i, row in enumerate(rows):
        setup_id, pair, _ = row.split(",")
        if in_cell(setup_id):
            f_k = int(setup_id.rsplit("_fk", 1)[1])
            rows[i] = f"{setup_id},{pair},{3.0 - 1e-7 * f_k + 1e-13 * f_k**2!r}\n"
    path = tmp_path / "flat.csv"
    path.write_text(header + "".join(rows))
    return str(path)


def test_fit_epochs_skips_a_cell_whose_optimum_leaves_the_float_range(workspace, tmp_path):
    results = _results_with_flat_cells(
        workspace, tmp_path, lambda setup_id: setup_id.startswith("fC-4_fD-7_fr0_")
    )
    out = tmp_path / "epochs.json"
    code = run(["fit", "epochs", "--results", results, "--setups", workspace["setups"],
                "--out", str(out)])
    assert code == 0
    doc = json.load(open(out))
    warning = "cell (f_C=-4, f_D=-7) skipped: epoch optimum out of range"
    assert doc["diagnostics"]["warnings"] == [warning]
    cells = {(fit["f_C"], fit["f_D"]) for fit in doc["parameters"]["fits"]}
    assert (-4, -7) not in cells
    assert len(cells) == len(json.load(open(workspace["epochs"]))["parameters"]["fits"]) - 1


def test_fit_epochs_without_a_usable_cell_is_fit_error(workspace, tmp_path, capsys):
    results = _results_with_flat_cells(workspace, tmp_path, lambda setup_id: "_fr0_" in setup_id)
    out = tmp_path / "epochs.json"
    code = run(["fit", "epochs", "--results", results, "--setups", workspace["setups"],
                "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "fit error: no budget cell has a usable epoch fit: 35 (f_C, f_D) cell(s) had data, "
        "35 had an epoch optimum out of range, first (f_C=-4, f_D=-7)\n"
    )
    assert not out.exists()


def _partial_results(workspace, tmp_path, keep):
    """The workspace results, only the rows whose setup id ``keep`` accepts."""
    with open(workspace["results"]) as fh:
        header, *rows = fh.readlines()
    path = tmp_path / "partial.csv"
    path.write_text(header + "".join(row for row in rows if keep(row.split(",")[0])))
    return str(path)


def test_fit_epochs_on_too_few_epoch_factors_names_the_shortfall(workspace, tmp_path, capsys):
    results = _partial_results(
        workspace, tmp_path, lambda setup_id: int(re.search(r"_fk(-?\d+)", setup_id)[1]) < 2
    )
    code = run(["fit", "epochs", "--results", results, "--setups", workspace["setups"],
                "--out", str(tmp_path / "epochs.json")])
    assert code == 3
    assert capsys.readouterr().err == (
        "fit error: no budget cell has a usable epoch fit: 18 (f_C, f_D) cell(s) had data, "
        "18 had fewer than 3 distinct f_k, first (f_C=-4, f_D=-4)\n"
    )


def test_fit_ratio_on_single_ratio_groups_names_the_shortfall(workspace, tmp_path, capsys):
    results = _partial_results(workspace, tmp_path, lambda setup_id: "_fr0_" in setup_id)
    code = run(["fit", "ratio", "--results", results, "--setups", workspace["setups"],
                "--out", str(tmp_path / "ratio.json")])
    assert code == 3
    assert capsys.readouterr().err == (
        "fit error: no (model scale, total tokens) group has two distinct ratios: "
        "13 group(s) had a single ratio value\n"
    )


def test_fit_kstar_on_a_sparse_sweep_counts_the_skipped_cells(workspace, tmp_path, capsys):
    rnd = random.Random(3)
    results = _partial_results(workspace, tmp_path, lambda _: rnd.random() < 0.1)
    epochs = str(tmp_path / "epochs.json")
    assert run(["fit", "epochs", "--results", results, "--setups", workspace["setups"],
                "--out", epochs]) == 0
    capsys.readouterr()
    code = run(["fit", "kstar", "--epoch-fits", epochs, "--out", str(tmp_path / "kstar.json")])
    assert code == 3
    assert capsys.readouterr().err == (
        "fit error: need >= 4 points, got 1; the epoch-fit file holds 1 cell(s), and its "
        "warnings list 12 as skipped\n"
    )
    assert not (tmp_path / "kstar.json").exists()


def _bad_input_file(case, tmp_path, workspace):
    """(argv, path) of a command reading the one bad input file ``case`` names."""
    out = str(tmp_path / "out")
    with open(workspace["setups"]) as fh:
        lines = [next(fh) for _ in range(3)]
    with open(workspace["results"], "rb") as fh:
        results = fh.read()
    edited = json.loads(lines[1]) | {"f_C": 1}
    two_stage = {"f_r": 1, "f_M": 0, "f_k": 0, "f_C": 0, "r1_frac": "3/4", "r2_frac": "1"}
    name, content = {
        "setups-f_C": ("s.jsonl", lines[0] + json.dumps(edited) + "\n" + lines[2]),
        "setups-r1": ("s.jsonl", json.dumps(two_stage) + "\n"),
        "setups-not-utf8": ("s.jsonl", b"\xff" + lines[0].encode()),
        "results-not-utf8": ("r.csv", b"\xff" + results),
        "results-field-limit": ("r.csv", "setup_id,language_pair,val_loss\n" + "x" * 131073
                                + ",surrogate,3.0\n"),
        "report-no-groups": ("a.json", '{"ingest": 5}'),
        "report-scale-minima-object": ("a.json", '{"groups": [], "scale_minima": {}}'),
    }[case]
    path = tmp_path / name
    if isinstance(content, str):
        path.write_text(content)
    else:
        path.write_bytes(content)
    path = str(path)
    if case.startswith("setups"):
        return ["plan", "fC0_fD0_fr0_fM0_fk0", "--setups", path, "--out", out], path
    if case.startswith("results"):
        return ["analyze", "--results", path, "--setups", workspace["setups"], "--out", out], path
    return ["report", "--analysis", path, "--out-dir", out, "--summary"], path


@pytest.mark.parametrize(
    "case, message",
    [
        ("setups-f_C", "line 2: f_C must be <= 0, got 1"),
        ("setups-r1", "line 1: need r1 < r < r2 strictly, got r1=3/4, r=1/2, r2=1"),
        ("setups-not-utf8",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("results-not-utf8",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("results-field-limit", "line 2: field larger than field limit (131072)"),
        ("report-no-groups", "missing field 'groups'"),
        ("report-scale-minima-object", "scale_minima must be a list, got {}"),
    ],
)
def test_bad_input_file_is_named_in_one_line(workspace, tmp_path, capsys, case, message):
    argv, path = _bad_input_file(case, tmp_path, workspace)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["null", "[1, 2]", '"x"', "3", "true"])
@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_setups_line_that_is_not_an_object_is_data_error(workspace, tmp_path, capsys, command,
                                                         line):
    with open(workspace["setups"]) as fh:
        first = next(fh)
    setups, out = tmp_path / "setups.jsonl", str(tmp_path / "out")
    setups.write_text(first + line + "\n")
    if command == "plan":
        argv = ["plan", json.loads(first)["id"], "--setups", str(setups), "--out", out]
    else:
        argv = ["simulate", "--setups", str(setups), "--out", out]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {setups}: line 2: expected a JSON object\n"
    assert not (tmp_path / "out").exists()


def _edited_report(workspace, tmp_path, edit):
    """Path of the Quickstart report.json after ``edit`` changed its parsed object."""
    with open(workspace["report"]) as fh:
        doc = json.load(fh)
    edit(doc)
    return _model_file(tmp_path, "a.json", doc)


def _set(section, key, value, row=0, category=None):
    def edit(doc):
        target = doc[section][row]
        if category is not None:
            target = target["minima"][category]
        target[key] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("groups", "C", "abc"), "C must be a finite number, got 'abc'"),
        (_set("groups", "D_T", None), "D_T must be a finite number, got None"),
        (_set("groups", "loss", [1], category="mono-1stage"),
         "loss must be a finite number, got [1]"),
        (_set("groups", "setup_id", 7, category="multi-2stage"), "setup_id must be a string, got 7"),
        (_set("scale_minima", "loss", [1]), "loss must be a finite number, got [1]"),
        (_set("scale_minima", "f_M", 1.5), "f_M must be an integer, got 1.5"),
        (_set("scale_minima", "M", True), "M must be a finite number, got True"),
        (_set("scale_minima", "setup_id", None, row=-1), "setup_id must be a string, got None"),
    ],
    ids=["group-C", "group-D_T", "group-loss", "group-setup_id", "scale-loss", "scale-f_M",
         "scale-M", "scale-setup_id"],
)
def test_report_checks_each_table_cell(workspace, tmp_path, capsys, edit, message):
    # each cell is read as its JSON type, so a wrong one never reaches a table
    path = _edited_report(workspace, tmp_path, edit)
    out = tmp_path / "out"
    code = run(["report", "--analysis", path, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("compute_optimal", "D_star", 10**400), "D_star must be a finite number, got 1000"),
        (_set("thresholds", "C", 10**400), "C must be a finite number, got 1000"),
        (_set("thresholds", "lower_D_T", "x"), "lower_D_T must be a finite number, got 'x'"),
        (_set("thresholds", "upper_D_T", None), "upper_D_T must be a finite number, got None"),
        (lambda doc: doc["ingest"].update(n_records="abc"), "n_records must be an integer, got 'abc'"),
        (lambda doc: doc["optimal_scale"]["fold_change"].update({"0": 10**400}),
         "0 must be a finite number, got 1000"),
    ],
    ids=["D_star", "C", "lower_D_T", "crossed-upper_D_T-null", "n_records", "fold_change"],
)
def test_report_summary_rejects_numbers_it_cannot_format(workspace, tmp_path, capsys, edit,
                                                         message):
    # a float format cannot take a JSON integer past the float range (OverflowError)
    path = _edited_report(workspace, tmp_path, edit)
    out = tmp_path / "out"
    code = run(["report", "--analysis", path, "--out-dir", str(out), "--summary"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_report_summary_accepts_the_nulls_the_writer_writes(workspace, tmp_path, capsys):
    def edit(doc):
        doc["compute_optimal"][0]["D_star"] = None
        no_crossing = dict.fromkeys(("lower_D_T", "upper_D_T", "ratio_lower", "ratio_upper"))
        doc["thresholds"][1].update(no_crossing, crossed=False, open_upper=False)
        doc["thresholds"][2].update(upper_D_T=None, ratio_upper=None, open_upper=True)

    path = _edited_report(workspace, tmp_path, edit)
    code = run(["report", "--analysis", path, "--out-dir", str(tmp_path / "out"), "--summary"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[2].startswith("  f_C=-4 (C=6.25e+16): D* unavailable; switch between D_T=")
    assert lines[3].endswith("no approach switch found")
    assert lines[4].endswith("no upper crossing)")


def test_config_file_is_checked_whole(workspace, tmp_path, capsys):
    # plan reads no epsilon, but a bad one in its config is still an error
    config = _model_file(tmp_path, "config.json", {"epsilon": "x"})
    out = tmp_path / "p.json"
    code = run(["--config", config, "plan", "fC0_fD0_fr0_fM0_fk0",
                "--setups", workspace["setups"], "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {config}: epsilon must be a finite number, got 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--results", "r.csv"], "--results and --setups go together"),
        (["--setups", "s.jsonl"], "--results and --setups go together"),
        (["--pair", "surrogate"], "--pair needs --results and --setups"),
        (["--pair", "surrogate", "--results", "r.csv"], "--pair needs --results and --setups"),
    ],
    ids=["results-only", "setups-only", "pair-only", "pair-and-results"],
)
def test_report_ratio_inputs_are_all_or_nothing(workspace, tmp_path, capsys, extra, message):
    out = tmp_path / "rpt"
    code = run(["report", "--analysis", workspace["report"], "--out-dir", str(out), *extra])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "fit epochs", "fit ratio"])
def test_pair_without_results_is_data_error(workspace, tmp_path, capsys, command):
    # analyze wrote an empty report and exit 0; both fits exited 3 with a fit error
    out = tmp_path / "out.json"
    code = run([*command.split(), "--results", workspace["results"], "--setups",
                workspace["setups"], "--pair", "zz-yy", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: no results for language pair 'zz-yy'\n"
    assert not out.exists()


@pytest.mark.parametrize("pair", [[], ["--pair", "en-sw"]], ids=["no-pair", "pair"])
@pytest.mark.parametrize(
    "rows,counts",
    [("", "0 record(s) read, 0"), ("nope,en-sw,2.0\nnope,en-sw,1.5\n", "2 record(s) read, 2")],
    ids=["header-only", "all-unknown"],
)
@pytest.mark.parametrize("command", ["analyze", "fit epochs", "fit ratio", "report"])
def test_no_accepted_results_is_named(workspace, tmp_path, capsys, command, rows, counts, pair):
    # exited 2 asking which of the pairs () to analyze, or naming the pair as missing
    results = tmp_path / "r.csv"
    results.write_text("setup_id,language_pair,val_loss\n" + rows)
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", "--analysis", workspace["report"], "--out-dir", str(out)]
    else:
        argv = [*command.split(), "--out", str(out)]
    code = run([*argv, "--results", str(results), "--setups", workspace["setups"], *pair])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: no accepted results: {counts} with an unknown setup id\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# Input boundary fuzz: one mutation of one Quickstart input per run
# ---------------------------------------------------------------------------

#: A value for "huge": JSON text that parses to a float beyond the float range.
_HUGE = "1e400"
#: What "retype" puts in a field: a string, a bool, a list or null, as JSON and as CSV text.
_RETYPED = ("x", True, [], None)
_RETYPED_CSV = ("x", "true", "[]", "")


@pytest.fixture(scope="module")
def fuzz_inputs(workspace, tmp_path_factory):
    """Paths of small valid inputs taken from the Quickstart, and the argv reading each one.

    Setups and results are the first 40 setups' lines and rows, and report.json is
    their analysis, so every run stays within a few milliseconds; the model files are
    the Quickstart's.
    """
    root = tmp_path_factory.mktemp("fuzz")
    clean = {name: str(root / name) for name in ("setups", "results", "config", "params",
                                                  "epochs", "kstar", "ratio", "report")}
    with open(workspace["setups"]) as fh:
        setups = [next(fh) for _ in range(40)]
    ids = {json.loads(line)["id"] for line in setups}
    with open(workspace["results"]) as fh:
        header, *rows = fh.readlines()
    texts = {
        "setups": "".join(setups),
        "results": header + "".join(row for row in rows if row.split(",")[0] in ids),
        "config": json.dumps({"devices": 8, "seed": 3, "epsilon": 0.0}),
        "params": json.dumps({"noise_sigma": 0.01, "seed": 3, "ratio_exponent": -0.4}),
    }
    texts |= {name: open(workspace[name]).read() for name in ("epochs", "kstar", "ratio")}
    for name, text in texts.items():
        with open(clean[name], "w") as fh:
            fh.write(text)
    ingest = ["--results", clean["results"], "--setups", clean["setups"]]
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(["analyze", *ingest, "--out", clean["report"]]) == 0

    def argv(name, path, out):
        analyze = ["analyze", *ingest, "--out", f"{out}/r.json", "--tables-dir", f"{out}/t"]
        report = ["report", "--analysis", clean["report"], "--out-dir", out]
        return {
            "setups": ["simulate", "--setups", path, "--out", f"{out}/r.csv"],
            "results": ["analyze", "--results", path, "--setups", clean["setups"],
                        "--out", f"{out}/r.json", "--tables-dir", f"{out}/t"],
            "config": ["--config", path, *analyze],
            "params": ["simulate", "--setups", clean["setups"], "--params", path,
                       "--out", f"{out}/r.csv"],
            "epochs": [*report, "--epoch-fits", path],
            "kstar": [*report, "--kstar-model", path],
            "ratio": [*report, "--ratio-fit", path, *ingest],
            "report": ["report", "--analysis", path, "--out-dir", out, "--summary"],
        }[name]

    return clean, argv


def _json_paths(value, path=()):
    """The key path of every value below ``value``, and whether that value is a number."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield path + (key,), type(child) in (int, float)
        yield from _json_paths(child, path + (key,))


def _mutate_json(doc, op, data):
    """JSON text of ``doc`` with the field ``op`` picks dropped, retyped or made huge."""
    paths = [path for path, number in _json_paths(doc) if number or op != "huge"]
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = "@huge@" if op == "huge" else data.draw(st.sampled_from(_RETYPED))
    return json.dumps(doc).replace('"@huge@"', _HUGE)


def _mutate(name, text, op, data):
    """The bytes of input ``name`` after one ``op`` mutation."""
    raw = text.encode()
    if op == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if op == "byte":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    if name == "results":
        header, *rows = text.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(rows) - 1))
        fields = rows[i].rstrip("\n").split(",")
        column = 2 if op == "huge" else data.draw(st.integers(0, 2))
        if op == "drop":
            del fields[column]
        else:
            fields[column] = _HUGE if op == "huge" else data.draw(st.sampled_from(_RETYPED_CSV))
        rows[i] = ",".join(fields) + "\n"
        return (header + "".join(rows)).encode()
    if name == "setups":
        lines = text.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = _mutate_json(json.loads(lines[i]), op, data) + "\n"
        return "".join(lines).encode()
    return _mutate_json(json.loads(text), op, data).encode()


@pytest.mark.parametrize(
    "name", ["setups", "results", "config", "params", "epochs", "kstar", "ratio", "report"]
)
@given(data=st.data())
def test_one_bad_input_exits_cleanly(fuzz_inputs, name, data):
    clean, argv = fuzz_inputs
    with open(clean[name]) as fh:
        text = fh.read()
    op = data.draw(st.sampled_from(["drop", "retype", "huge", "truncate", "byte"]))
    with tempfile.TemporaryDirectory() as root:
        path, out = os.path.join(root, name), os.path.join(root, "out")
        with open(path, "wb") as fh:
            fh.write(_mutate(name, text, op, data))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv(name, path, out))
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1 and "Traceback" not in err
        assert "internal error:" not in err  # the backstop hides no new bug
        left = [f for _, _, files in os.walk(root) for f in files if ".tmp." in f or ".bak." in f]
        assert left == []
        if code != 0:
            assert stdout.getvalue() == ""
            assert not os.path.exists(out)
            assert err.startswith(("error: ", "usage error: ", "fit error: "))
