"""Repeat the benchmark over several seeds: its spread, or a parent/change comparison.

    python3 perfbench/repeat.py --workload operad-laws --seeds 1-10
        runs this checkout once per seed and prints, per metric, the median,
        the quartiles and the quartile spread as a share of the median.

    python3 perfbench/repeat.py --workload operad-laws --seeds 1-10 --parent ../parent
        runs pairs (parent checkout, this checkout) on each seed, alternating
        which side goes first, and applies the gain rule: the change wins at
        least nine tenths of the pairs, ties counting for neither, and the
        medians differ by more than the parent's own quartile spread.

Both sides run the benchmark code of their own checkout, so compare two
commits that carry the same perfbench/ files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: seed {seed} exited {proc.returncode}\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    if not doc["correct"]:
        print(f"{checkout}: seed {seed}: {doc['failed']} of {doc['attempted']} wrong",
              file=sys.stderr)
    return {name: m["value"] for name, m in doc["metrics"].items()}


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    args = parser.parse_args()
    change = HERE.parent
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    if args.parent is None:
        runs = [run(change, args.workload, s, args.seconds, args.trace) for s in args.seeds]
        print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in runs[0]:
            q1, q2, q3 = quartiles([r[name] for r in runs])
            spread = (q3 - q1) / q2 if q2 else float("nan")
            print(f"{name:<40} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")
        return 0

    parent_runs, change_runs = [], []
    for i, seed in enumerate(args.seeds):
        sides = [(args.parent, parent_runs), (change, change_runs)]
        for checkout, runs in (sides if i % 2 == 0 else sides[::-1]):
            runs.append(run(checkout, args.workload, seed, args.seconds, args.trace))
    print(f"{'metric':<40} {'parent q1/q2/q3':>32} {'change q1/q2/q3':>32} {'wins':>6}  "
          "gain  regression")
    for name in change_runs[0]:
        sign = -1 if better.get(name, "lower") == "lower" else 1
        p = [r[name] for r in parent_runs]
        c = [r[name] for r in change_runs]
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        gain = wins >= 0.9 * len(p) and sign * (cq[1] - pq[1]) > pq[2] - pq[0]
        # worse than the parent's median by more than the metric's bound
        worse = name in bound and pq[1] and sign * (cq[1] - pq[1]) / pq[1] < -bound[name]
        print(f"{name:<40} {'/'.join(f'{v:.4g}' for v in pq):>32} "
              f"{'/'.join(f'{v:.4g}' for v in cq):>32} {wins:>3}/{len(p):<2}  "
              f"{'yes' if gain else 'no':<4}  {'YES' if worse else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
