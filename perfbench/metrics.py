"""The benchmark's metric catalogue: names, units, direction and bounds.

``BENCHMARK.json`` at the repository root lists the metrics the last output
line carries; ``run.py`` refuses to run if it disagrees with this file.
"""

from __future__ import annotations

# The workloads BENCHMARK.json lists. ``run.py`` also runs ``replicates`` on
# request; it is left out of BENCHMARK.json so the listed ones get longer runs.
WORKLOADS = ("quickstart", "plan-batch")

# name: (unit, better, bound). The bound is the share of the parent's median
# by which the metric may worsen. README.md lists the workloads of each.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pipeline_s": ("s", "lower", 0.25),
    "pipeline_rel": ("ratio", "lower", 0.2),
    "stage.enumerate_s": ("s", "lower", 0.25),
    "stage.plan_s": ("s", "lower", 0.25),
    "stage.simulate_s": ("s", "lower", 0.25),
    "stage.analyze_s": ("s", "lower", 0.25),
    "stage.fit_epochs_s": ("s", "lower", 0.25),
    "stage.fit_kstar_s": ("s", "lower", 0.25),
    "stage.fit_ratio_s": ("s", "lower", 0.25),
    "stage.predict_s": ("s", "lower", 0.25),
    "stage.report_s": ("s", "lower", 0.25),
    "plan_p95_s": ("s", "lower", 0.25),
    "cli_import_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "failed_ratio": ("ratio", "lower", 0.0),
}

# The metrics on the last output line of an untraced run: every workload
# has them and none of them is ever 0. ``failed_ratio`` is 0 on a good run,
# so it travels as the line's ``attempted`` and ``failed`` counts instead.
GATED = ("setup_s", "pipeline_rel", "peak_rss_mb")

# Per-layer metrics of a traced run: name -> (unit, better). A ``_s`` metric
# is span self time summed per pass; the others are exact counts per pass.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.nonzero_exits": ("count", "lower"),
    "space.enumerate_s": ("s", "lower"),
    "space.write_jsonl_s": ("s", "lower"),
    "space.read_jsonl_s": ("s", "lower"),
    "space.setups_parsed": ("count", "lower"),
    "budget.derive_calls": ("count", "lower"),
    "budget.derive_s": ("s", "lower"),
    "trainplan.build_training_plan_s": ("s", "lower"),
    "trainplan.plans_built": ("count", "lower"),
    "schedule.build_schedule_s": ("s", "lower"),
    "schedule.schedule_rows_s": ("s", "lower"),
    "schedule.rows_emitted": ("count", "lower"),
    "surrogate.generate_dataset_s": ("s", "lower"),
    "surrogate.records": ("count", "lower"),
    "analysis.read_results_csv_s": ("s", "lower"),
    "analysis.rows_read": ("count", "lower"),
    "analysis.ingest_s": ("s", "lower"),
    "analysis.duplicates_reduced": ("count", "lower"),
    "analysis.for_pair_s": ("s", "lower"),
    "analysis.for_pair_scans": ("count", "lower"),
    "analysis.build_report_s": ("s", "lower"),
    "fitting.fit_kstar_model_s": ("s", "lower"),
    "fitting.kstar_solves": ("count", "lower"),
    "fitting.kstar_nfev": ("count", "lower"),
    "fitting.kstar_nit": ("count", "lower"),
    "fitting.kstar_converged_ratio": ("ratio", "higher"),
    "fitting.fit_epoch_quadratic_s": ("s", "lower"),
    "fitting.epoch_fits": ("count", "lower"),
    "fitting.fit_ratio_power_law_s": ("s", "lower"),
    "fitting.predict_kstar_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def check_benchmark_json(doc: dict) -> None:
    """Raise ValueError unless BENCHMARK.json lists exactly the gated and per-layer metrics."""
    expected_e2e = [
        {"name": name, "unit": END_TO_END[name][0], "better": END_TO_END[name][1],
         "bound": END_TO_END[name][2]}
        for name in GATED
    ]
    expected_layer = [
        {"name": name, "unit": unit, "better": better} for name, (unit, better) in PER_LAYER.items()
    ]
    if doc.get("end_to_end") != expected_e2e:
        raise ValueError("BENCHMARK.json end_to_end differs from perfbench/metrics.py")
    if doc.get("per_layer") != expected_layer:
        raise ValueError("BENCHMARK.json per_layer differs from perfbench/metrics.py")
    if [w["name"] for w in doc.get("workloads", ())] != list(WORKLOADS):
        raise ValueError("BENCHMARK.json workloads differ from perfbench/metrics.py")
