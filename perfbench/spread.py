"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload admit-tandem --seeds 1,2,3,4,5 [--sets 2]

Runs ``perfbench/run.py --trace 0`` once per seed, one after another,
and prints for every end-to-end metric its values, the median, and the
distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, next to the
metric's bound in ``BENCHMARK.json``.  A metric is steady when its
spread is below a third of its bound.  With ``--sets N`` the seeds run N
times over, and each later set's median is compared with the first's:
the change, in the metric's worse direction, as a share of the first
median, must stay within the bound.  Each run's work fingerprint is
printed too: a seed run twice must print the same fingerprint.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), next(
        (ln for ln in lines if ln.startswith("perfbench ")), "")


def one_set(args, spec: dict) -> tuple[dict[str, list[float]], bool]:
    values: dict[str, list[float]] = {}
    correct = True
    for seed in (int(s) for s in args.seeds.split(",")):
        result, line = run(args.workload, seed, spec["run_seconds"])
        shown = [w for w in line.split()
                 if w.startswith(("fingerprint=", "host_probe", "busy_s=", "raw_"))]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(shown), flush=True)
        correct &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    steady = True
    first: dict[str, float] = {}
    for number in range(1, args.sets + 1):
        print(f"set {number}", flush=True)
        values, correct = one_set(args, spec)
        steady &= correct
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = metrics[name]["bound"]
            ok = spread < bound / 3
            text = (f"{name:12s} median={med:.6g} spread={spread:.4f} bound={bound} "
                    f"{'ok' if ok else 'WIDE'}")
            if number == 1:
                first[name] = med
            else:
                sign = 1 if metrics[name]["better"] == "lower" else -1
                worse = sign * (med - first[name]) / first[name]
                ok &= worse <= bound
                text += f" worse_than_set1={worse:+.4f}"
            steady &= ok
            print(f"{text}  values={['%.5g' % v for v in vals]}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
