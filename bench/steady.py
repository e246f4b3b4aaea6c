"""Steadiness check: repeat each workload over several seeds and report spreads.

    python3 bench/steady.py --runs 10 --first-seed 101 --save set-a
    python3 bench/steady.py --runs 10 --first-seed 201 --save set-b --against set-a

Runs the command in BENCHMARK.json once per (seed, workload), one run at a
time, workloads interleaved so slow drift of the host lands on all of
them.  For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
next to the metric's bound.  With --against it also prints how far each
median moved from a saved set.  Results are saved under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_by(metric: dict, new: float, old: float) -> float:
    """Share by which new is worse than old in the metric's direction."""
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", default=None, help="name of the set saved under bench/out/")
    parser.add_argument("--against", default=None, help="name of a saved set to compare with")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]

    results: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            seed = args.first_seed + i
            results[name].append(run_once(spec, name, seed))
            print(f"run {i + 1}/{args.runs} {name} seed={seed} done", file=sys.stderr)

    against = None
    if args.against:
        with open(os.path.join(OUT, f"steady-{args.against}.json"), encoding="utf-8") as handle:
            against = json.load(handle)

    summary: dict[str, dict] = {}
    for name, runs in results.items():
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        print(f"\n{name}: correct={all(r['correct'] for r in runs)} "
              f"failed/attempted={[f'{f}/{a}' for f, a in shares]}")
        summary[name] = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            stats = summarise([r["metrics"][key]["value"] for r in runs])
            summary[name][key] = stats
            line = (f"  {key:<34} median {stats['median']:12.4f} {metric['unit']:<6}"
                    f" q1 {stats['q1']:12.4f} q3 {stats['q3']:12.4f}"
                    f" spread {stats['spread'] * 100:6.2f} %"
                    f"  bound {metric['bound'] * 100:5.1f} %")
            if against is not None:
                old = against[name][key]["median"]
                line += f"  moved {worse_by(metric, stats['median'], old) * 100:+6.2f} %"
            print(line)

    if args.save:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"steady-{args.save}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
        print(f"\nsaved {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
