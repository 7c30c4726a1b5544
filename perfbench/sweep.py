"""Run the benchmark over several seeds and workloads, one process at a
time, keeping every run record.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 --out .perfbench/set1
    python3 perfbench/sweep.py --workloads heatmap --seeds 1,2,3 --trace 1 --out DIR

Then ``perfbench/summarize.py DIR [DIR2]`` prints medians, quartile
spreads and (with two sets) median drift and output-digest agreement.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_infer", "voxel_infer", "point_train", "heatmap")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = (int(x) for x in part.split("-"))
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", default=None,
                   help="measured loop length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="record directory")
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            seconds = str(json.load(f)["run_seconds"])
    failures = 0
    # Seed-major order interleaves workloads, so slow drift of the machine
    # spreads over all of them instead of landing on one.
    for seed in args.seeds:
        for wl in args.workloads.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", seconds, "--trace", str(args.trace),
                   "--record-dir", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{wl} seed {seed}: exit {proc.returncode} {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                failures += 1
                sys.stderr.write(proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
