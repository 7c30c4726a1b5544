"""Summarize run records: per workload and metric, the median and the
quartile spread (Q3 - Q1) / median over seeds; with a second record
directory, the drift of each median against the bound in BENCHMARK.json
and whether every op both sets completed produced identical bytes.

    python3 perfbench/summarize.py DIR [DIR2] [--json OUT]
"""

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import harness  # noqa: E402


def load_records(directory: str) -> dict:
    """(workload, seed, trace) -> record."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def metric_table(records: dict, trace: int = 0) -> dict:
    """workload -> metric -> list of values over seeds (untraced: end to end)."""
    table: dict = {}
    for (wl, _seed, tr), rec in sorted(records.items()):
        if tr != trace:
            continue
        values = rec["end_to_end"] if trace == 0 else rec["per_layer"]
        for name, v in values.items():
            table.setdefault(wl, {}).setdefault(name, []).append(v)
    return table


def stats(values) -> dict:
    out = {"n": len(values), "median": harness.median(values)}
    if len(values) >= 2:
        out["spread"] = harness.quartile_spread(values)
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dirs", nargs="+", help="one or two record directories")
    p.add_argument("--json", help="also write the summary here")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    sets = [load_records(d) for d in args.dirs[:2]]
    tables = [metric_table(s) for s in sets]
    summary: dict = {"sets": []}
    ok = True
    for i, table in enumerate(tables):
        print(f"set {i + 1}: {args.dirs[i]}")
        block = {}
        for wl, metrics in table.items():
            for name, values in metrics.items():
                st = stats(values)
                block.setdefault(wl, {})[name] = dict(st, values=values)
                bound = e2e.get(name, {}).get("bound")
                flag = ""
                if bound is not None and "spread" in st and name != "setup_s":
                    within = st["spread"] <= bound
                    ok &= within
                    flag = ("ok" if st["spread"] < bound / 3 else
                            "within bound" if within else "OVER BOUND")
                print(f"  {wl:12s} {name:12s} median {st['median']:.6g}  "
                      f"spread {st.get('spread', float('nan')):.4f}  {flag}")
        summary["sets"].append(block)

    if len(sets) == 2:
        print("set 2 against set 1")
        drift = {}
        for wl, metrics in tables[0].items():
            for name, values in metrics.items():
                if name not in e2e or name not in tables[1].get(wl, {}):
                    continue
                w = worse_by(harness.median(values), harness.median(tables[1][wl][name]),
                             e2e[name]["better"])
                within = w <= e2e[name]["bound"]
                ok &= within
                drift.setdefault(wl, {})[name] = w
                print(f"  {wl:12s} {name:12s} worse by {w:+.4f} "
                      f"(bound {e2e[name]['bound']})  {'ok' if within else 'OVER BOUND'}")
        compared = mismatched = 0
        for key, rec in sets[0].items():
            if key in sets[1]:
                res = harness.compare_digests(rec, sets[1][key])
                compared += res["compared"]
                mismatched += len(res["mismatched"])
        ok &= mismatched == 0
        print(f"  output digests: {compared} ops compared, {mismatched} differ")
        summary.update(drift=drift, digests={"compared": compared, "mismatched": mismatched})

    if args.json:
        harness.write_json(args.json, summary)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
