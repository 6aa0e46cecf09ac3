"""Run every workload several times and summarise each metric.

For each workload and end-to-end metric it prints the unit, median, first
and third quartiles, sample count and spread (interquartile range over
median), and the fraction of failed operations. With ``--trace`` it also
makes a traced run of every workload at every seed, and prints the median per-layer metrics and the tracing overhead: traced minus
untraced wall time at the same seed, with its quartiles.

    python3 perfbench/summary.py --runs 10 [--workload NAME ...] [--trace]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--trace", action="store_true",
                        help="also make a traced run at every seed")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    traced_names = names if args.trace else []
    plain: dict[str, list] = {n: [] for n in names}
    traced: dict[str, list] = {n: [] for n in traced_names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        # Workloads interleaved, so drift of the machine hits all alike.
        for name in names:
            plain[name].append(run_once(name, seed, bench["run_seconds"], 0))
        for name in traced_names:
            traced[name].append(run_once(name, seed, bench["run_seconds"], 1))

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in names:
        runs = plain[name]
        print(f"\n{name}")
        print(f"  {'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'n':>4}{'spread':>9}{'bound':>8}")
        rows = [(m["name"], m["unit"], [r["metrics"][m["name"]]["value"] for r in runs])
                for m in bench["end_to_end"]]
        rows.append(("fail_frac", "1", [r["failed"] / r["attempted"] for r in runs]))
        for metric, unit, values in rows:
            s = stats(values)
            print(f"  {metric:<14}{unit:<7}{s['median']:>12.6g}{s['q1']:>12.6g}"
                  f"{s['q3']:>12.6g}{s['n']:>4}{s['spread']:>9.4f}"
                  f"{bounds.get(metric, float('nan')):>8.2f}")
        print(f"  correct in every run: {all(r['correct'] for r in runs)}")

    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, runs in traced.items():
        print(f"\ntraced {name} ({len(runs)} runs)")
        layer = {metric: statistics.median(r["metrics"][metric]["value"] for r in runs)
                 for metric in units}
        for metric, value in sorted(layer.items(), key=lambda kv: (units[kv[0]], -kv[1])):
            print(f"    {metric:<42}{value:>14.6g} {units[metric]}")
        # Traced minus untraced wall time, pairing the runs of one seed.
        base = [r["metrics"]["wall_s"]["value"] for r in plain[name]]
        s = stats([r["metrics"]["trace.wall_s"]["value"] - b
                   for r, b in zip(runs, base)])
        noise = stats(base)
        verdict = ("unresolved: smaller than the untraced IQR"
                   if abs(s["median"]) < noise["q3"] - noise["q1"] else "resolved")
        print(f"    {'tracing overhead':<42}{s['median']:>14.6g} s  "
              f"(q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, n {s['n']}; {verdict})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
