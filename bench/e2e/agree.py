#!/usr/bin/env python3
"""Checks that end-to-end benchmark result files agree within the bounds in
BENCHMARK.json.

    agree.py A1.json A2.json A3.json [--vs B1.json B2.json B3.json]

Each file is an e2e-results.json written by elision_e2e (bench/e2e/run.sh
writes build-e2e/e2e-results.json; pass --out DIR to keep several). For every
(end-to-end metric, workload) pair it prints the median and quartiles across
the files and the spread, (q3 - q1) / median:

  unresolved  the spread of a set exceeds the metric's bound
  disagree    with --vs, set B's median is worse than set A's by more than
              the bound; or a file reports failed reps; or two files with
              the same seed and rep count differ in a digest or a virt_*
              value (simulated results must be identical)
  agree       otherwise

Exits 0 when every pair agrees and 1 otherwise. Standard library only.
"""
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append((p, json.load(f)))
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q1, med, q3):
    return (q3 - q1) / med if med else 0.0


def exactness(runs):
    """Problems with simulated results across files of one seed."""
    problems = []
    first = {}
    for path, run in runs:
        for name, w in run["workloads"].items():
            if w["failed"]:
                problems.append(f"{path}: {name}: {w['failed']} failed reps")
            key = (name, run["seed"], run["reps"], run["trace"])
            exact = {k: v["value"] for k, v in w["metrics"].items()
                     if k.startswith("virt_")}
            exact["digests"] = w["digests"][:run["reps"]]
            if key not in first:
                first[key] = (path, exact)
                continue
            ref_path, ref = first[key]
            for k, v in exact.items():
                if ref.get(k) != v:
                    problems.append(f"{path}: {name}: {k} differs from "
                                    f"{ref_path} at the same seed")
    return problems


def main(argv):
    if "--vs" in argv:
        i = argv.index("--vs")
        set_a, set_b = argv[:i], argv[i + 1:]
    else:
        set_a, set_b = argv, []
    if not set_a or ("--vs" in argv and not set_b):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load(set_a), load(set_b)

    bad = 0
    for problem in exactness(a + b):
        print("disagree  " + problem)
        bad += 1

    workloads = sorted({w for _, run in a + b for w in run["workloads"]})
    for m in metrics:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        for w in workloads:
            line = f"{name:22s} {w:13s}"
            medians = []
            status = "agree"
            for label, runs in (("A", a), ("B", b)):
                values = [run["workloads"][w]["metrics"][name]["value"]
                          for _, run in runs if w in run["workloads"]]
                if not values:
                    continue
                q1, med, q3 = summary(values)
                s = spread(q1, med, q3)
                medians.append(med)
                if s > bound:
                    status = "unresolved"
                line += (f"  {label} {med:.6g} [{q1:.6g}, {q3:.6g}]"
                         f" spread {s:.3f}")
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                if (-change if higher else change) > bound:
                    status = "disagree"
                line += f"  B/A {change:+.3f}"
            print(f"{line}  bound {bound}  {status}")
            bad += status != "agree"
    print(f"agree.py: {'all pairs agree' if bad == 0 else f'{bad} problems'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
