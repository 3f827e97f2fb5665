#!/usr/bin/env python3
"""Steadiness of the benchmark: run every workload of BENCHMARK.json in
two sets of runs, each run with another seed, and print every metric's
median, quartiles, min/max and spread (interquartile range over median)
beside its bound, then how far the second set's median moved from the
first's.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--trace]

The first set uses seeds seed0 .. seed0+runs-1, the second the next
`runs` seeds. Quartiles are those of statistics.quantiles(values, n=4).
The benchmark is steady when every spread is under a third of the
metric's bound (setup_s is exempt: its median over many runs is what is
compared), when no metric's second median is worse than the first by
more than its bound, and when the share of failed operations is the
same in every run. With --trace each run of the first set is repeated
traced: the per-layer medians are printed, and the tracing overhead of
every end-to-end metric is the traced median over the untraced median,
minus one.
"""

import argparse
from fractions import Fraction
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(spec, workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (code %d)" % (" ".join(cmd),
                                                       proc.returncode))
    result = json.loads(lines[-1])
    traced_e2e = None
    for line in lines[:-1]:
        if line.startswith("traced end-to-end: "):
            traced_e2e = json.loads(line[len("traced end-to-end: "):])
    return result, traced_e2e


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med if med else 0.0}


def run_set(spec, workload, seeds, trace, layer_names, bounds):
    """Runs `workload` once per seed; returns its values by metric, the
    traced per-layer and end-to-end values, units and failed shares."""
    values, traced, per_layer, units, shares = {}, {}, {}, {}, set()
    correct = True
    for seed in seeds:
        result, _ = one_run(spec, workload, seed, False)
        correct = correct and result["correct"]
        shares.add(Fraction(result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            if name not in bounds:
                raise SystemExit("%s is not an end-to-end metric" % name)
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("%s seed %d: %s" % (workload, seed, json.dumps(
            {k: round(v["value"], 6) for k, v in result["metrics"].items()})),
            file=sys.stderr, flush=True)
        if trace:
            result, e2e = one_run(spec, workload, seed, True)
            correct = correct and result["correct"]
            for name, m in result["metrics"].items():
                if name not in layer_names:
                    raise SystemExit("%s is not a per-layer metric" % name)
                per_layer.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for name, m in (e2e or {}).get("metrics", {}).items():
                traced.setdefault(name, []).append(m["value"])
    return correct, values, traced, per_layer, units, shares


def print_table(values, units, bounds):
    """Prints the summary of one set; returns False if a spread is too
    wide for its bound."""
    steady = True
    print("%-24s %-9s %11s %11s %11s %11s %11s %8s %5s" % (
        "metric", "unit", "median", "q1", "q3", "min", "max", "spread",
        "bound"))
    for name, vals in values.items():
        s = summarize(vals)
        flag = ""
        if name != "setup_s" and s["spread"] >= bounds[name] / 3:
            flag = "  UNSTEADY"
            steady = False
        print("%-24s %-9s %11.5g %11.5g %11.5g %11.5g %11.5g %7.2f%% %5s%s" % (
            name, units[name], s["median"], s["q1"], s["q3"], s["min"],
            s["max"], 100 * s["spread"], bounds[name], flag))
    return steady


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}

    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for k in range(2):
            first = args.seed0 + k * args.runs
            seeds = range(first, first + args.runs)
            ok, values, traced, per_layer, units, shares = run_set(
                spec, workload, seeds, args.trace and k == 0, layer_names,
                bounds)
            steady = steady and ok
            print("\n== %s, set %d: %d runs, seeds %d..%d ==" % (
                workload, k + 1, args.runs, first, first + args.runs - 1))
            steady = print_table(values, units, bounds) and steady
            sets.append((values, shares))
            if traced:
                print("-- traced: per-layer metrics (median [q1, q3]; "
                      "layers the workload never calls, all 0, left out) --")
                for name, vals in per_layer.items():
                    if not any(vals):
                        continue
                    s = summarize(vals)
                    print("%-32s %12.6g [%.6g, %.6g] %s" % (
                        name, s["median"], s["q1"], s["q3"], units[name]))
                print("-- tracing overhead "
                      "(traced median / untraced median - 1) --")
                for name, vals in traced.items():
                    base = statistics.median(values[name])
                    print("%-24s %+7.2f%%" % (
                        name, 100 * (statistics.median(vals) / base - 1)))
        print("\n-- %s: set 2 median against set 1 median --" % workload)
        print("%-24s %11s %11s %8s %8s %5s" % (
            "metric", "set 1", "set 2", "change", "worse", "bound"))
        for name in sets[0][0]:
            m1 = statistics.median(sets[0][0][name])
            m2 = statistics.median(sets[1][0][name])
            change = m2 / m1 - 1
            worse = change if better[name] == "lower" else -change
            flag = ""
            if worse > bounds[name]:
                flag = "  WORSE THAN BOUND"
                steady = False
            print("%-24s %11.5g %11.5g %+7.2f%% %+7.2f%% %5s%s" % (
                name, m1, m2, 100 * change, 100 * worse, bounds[name], flag))
        shares = sets[0][1] | sets[1][1]
        print("failed share: %s" % ("identical in every run"
                                    if len(shares) == 1 else
                                    "DIFFERS: %s" % sorted(map(str, shares))))
        steady = steady and len(shares) == 1
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
