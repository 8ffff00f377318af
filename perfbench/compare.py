"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the runs ``run.py`` appended to it (``--results``). Runs of
a workload are paired in file order, so run the two commits alternately,
at least ten runs each, with the same ``--seconds``. For each workload and
end-to-end metric it prints each side's median, quartiles and run count,
the ratio of the medians (change / parent), the pairs the change won, and a
verdict:

- ``gain``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
- ``unresolved``: the parent's spread is wider than the metric's bound and
  not every change run reads better than every parent run;
- ``regression``: the change's median is worse by more than the bound;
- ``no regression`` otherwise.

Traced runs are listed per layer with their medians and ratio; counts are
marked ``equal`` or ``changed``. Exits 1 if any metric regressed or any
change run failed its checks.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from metrics import END_TO_END, PER_LAYER


def load(path: str) -> tuple[dict, list]:
    runs = defaultdict(list)
    notes = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            runs[(record["workload"], record["trace"])].append(record)
            notes.append(record["machine"])
    return runs, notes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, str]:
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    iqr = p3 - p1
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > iqr:
        return "gain", f"{wins}/{len(pairs)}"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if iqr > bound * abs(pm) and not all_better:
        return "unresolved", f"{wins}/{len(pairs)}"
    if sign * (cm - pm) > bound * abs(pm):
        return "regression", f"{wins}/{len(pairs)}"
    return "no regression", f"{wins}/{len(pairs)}"


def _cell(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (parent, parent_notes), (change, change_notes) = load(argv[0]), load(argv[1])
    for label, notes in (("parent", parent_notes), ("change", change_notes)):
        commits = sorted({note["commit"] for note in notes})
        first = notes[0] if notes else {}
        print(f"{label}: commit {','.join(commits)} nproc={first.get('nproc')} "
              f"python={first.get('python')} numpy={first.get('numpy')} scipy={first.get('scipy')}")
    bad = False
    header = f"{'workload':11} {'metric':32} {'unit':6} {'parent':38} {'change':38} {'ratio':>7} {'wins':>6}  verdict"
    for trace in (0, 1):
        print(header)
        for workload, t in sorted(parent):
            if t != trace or (workload, t) not in change:
                continue
            p_runs, c_runs = parent[(workload, t)], change[(workload, t)]
            if any(not run["correct"] for run in c_runs):
                print(f"{workload:11} change runs failed their checks")
                bad = True
            names = [n for n in (PER_LAYER if trace else END_TO_END)
                     if n in p_runs[0]["metrics"] and n in c_runs[0]["metrics"]]
            for name in names:
                p = [run["metrics"][name]["value"] for run in p_runs]
                c = [run["metrics"][name]["value"] for run in c_runs]
                pm = statistics.median(p)
                ratio = statistics.median(c) / pm if pm else float("nan")
                if trace:
                    unit = PER_LAYER[name][0]
                    wins, result = "", ("-" if unit in ("s", "ratio")
                                        else "equal" if set(p) == set(c) and len(set(p)) == 1
                                        else "changed")
                else:
                    unit, better, bound = END_TO_END[name]
                    result, wins = verdict(p, c, better, bound)
                    bad |= result == "regression"
                print(f"{workload:11} {name:32} {unit:6} {_cell(p):38} {_cell(c):38} "
                      f"{ratio:7.3f} {wins:>6}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
