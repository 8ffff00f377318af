import json
import os
import subprocess
import sys

import pytest

import mixsweep
from mixsweep.budget import reference_constants
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
    assert err == "error: config key 'devices': cannot read 'x' as int\n"


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


def test_scipy_stays_off_the_import_path(tmp_path):
    # only `fit kstar` needs scipy; every other command must start without it
    script = (
        "import sys, mixsweep, mixsweep.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        f"assert mixsweep.cli.run(['enumerate', '--out', {str(tmp_path / 's.jsonl')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, 'enumerate'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixsweep.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
