"""gha3d benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload point_infer --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. The last line of stdout is a
JSON object {correct, attempted, failed, metrics}: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. A full record (op
times, digests, environment, spans) goes to ``--record-dir``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import harness  # noqa: E402

# One BLAS/OpenMP thread, set before numpy loads: the workloads are
# single-client and must not compete with themselves for the cores.
for _var in harness.THREAD_VARS:
    os.environ[_var] = "1"

SETUP_REPEATS = 3
# Imports happen once per process, so two extra interpreters time the same
# imports and the median of the three import times enters setup_s.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sys; sys.path[:0] = {paths!r}; "
                "import workloads; print(time.perf_counter() - t)")
# Metric names and units come from BENCHMARK.json. Per-layer seconds and
# counts are per op (mean over the traced ops); for point_train the
# geometry and build numbers describe the one structure build of set-up.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Metrics a replay kind produces; withheld (-1) if that replay ever failed
# to reproduce its composite bitwise.
REPLAY_METRICS = {
    "structure": ("geometry.knn_s", "geometry.fps_s", "geometry.parent_s",
                  "geometry.window_s", "hierarchy.smooth_s"),
    "block": ("block.attn_s", "block.ffn_s", "hierarchy.with_values_s",
              "hierarchy.with_values_calls", "attention.forward_s", "attention.forward_calls",
              "attention.edges_per_s", "attention.weight_count"),
    "row": ("hierarchy.with_values_s", "hierarchy.with_values_calls", "attention.forward_s",
            "attention.forward_calls", "attention.edges_per_s", "attention.weight_count",
            "analysis.probe_columns"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("point_infer", "voxel_infer", "point_train", "heatmap"))
    p.add_argument("--seed", type=harness.parse_seed, required=True,
                   help="workload seed (int >= 0), or 'held-out'")
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-dir", default=os.path.join(ROOT, ".perfbench", "runs"),
                   help="where the full run record is written")
    return p.parse_args(argv)


def import_package():
    """Import gha3d from this checkout's src/ only; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "gha3d", "__init__.py")):
        print(f"error: no gha3d package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import gha3d

    if os.path.dirname(os.path.dirname(os.path.abspath(gha3d.__file__))) != SRC:
        print(f"error: gha3d imported from {gha3d.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure(wl, seconds, trace, tracer, refs):
    """Closed loop: the next op starts when the previous one and its check
    are done; the loop ends at the first cycle boundary after ``seconds``.
    The reference kernel runs between ops (appended to ``refs``) to track
    the machine's speed around each op. With tracing, every traced op is
    preceded by an untraced run of the same op on the same input, which
    gives the tracing overhead and a determinism check."""
    records, per_op, mismatches = [], [], []
    t_loop = time.perf_counter()
    i = 0
    while True:
        if trace:
            plain = harness.run_op(i, *wl.make_op(i))
            tracer.op = i
            fn, check, after = wl.traced_op(i, tracer)
            rec = harness.run_op(i, fn, check)
            kinds, props = after()
            tracer.op = None
            if rec.ok and not plain.ok:
                rec.ok, rec.error = False, f"untraced run failed: {plain.error}"
            elif rec.ok and rec.digest != plain.digest:
                rec.ok, rec.error = False, "traced output differs from untraced output"
            mismatches.extend(kinds)
            per_op.append({"op": i, "plain_s": plain.seconds, "traced_s": rec.seconds,
                           "props": props})
        else:
            rec = harness.run_op(i, *wl.make_op(i))
        refs.append(harness.reference_kernel())
        records.append(rec)
        i += 1
        if time.perf_counter() - t_loop >= seconds and i % wl.cycle == 0:
            break
    return records, per_op, mismatches


def layer_metrics(tracer, per_op, mismatches, setup_props):
    """Per-layer numbers from the spans: per-op sums, averaged over ops.
    Spans tagged op "setup" (point_train's one build) count once."""
    by_op: dict = {}
    self_t = harness.self_times(tracer.spans)
    edges = edge_s = 0.0
    for s, st in zip(tracer.spans, self_t):
        vals = by_op.setdefault(s["op"], {})
        dur = s["end"] - s["start"]
        # A span named "layer.stage" feeds "layer.stage_s" and, where the
        # benchmark counts calls, "layer.stage_calls".
        sec, calls = s["name"] + "_s", s["name"] + "_calls"
        if sec in PER_LAYER:
            vals[sec] = vals.get(sec, 0.0) + dur
        if calls in PER_LAYER:
            vals[calls] = vals.get(calls, 0) + 1
        if s["name"] == "cli.main":
            vals["cli.overhead_s"] = vals.get("cli.overhead_s", 0.0) + st
        if s["name"] == "attention.forward":
            edges += s["counts"]["edges"]
            edge_s += dur
            vals["attention.weight_count"] = vals.get("attention.weight_count", 0) + s["counts"]["edges"]
        if "columns" in s["counts"]:
            vals["analysis.probe_columns"] = vals.get("analysis.probe_columns", 0) + s["counts"]["columns"]
    for rec in per_op:
        props = rec["props"] or setup_props
        vals = by_op.setdefault(rec["op"], {})
        if props:
            vals["geometry.dup_token_frac"] = props["dup_token_frac"]
            vals["hierarchy.levels"] = len(props["level_sizes"])
            vals["hierarchy.edges"] = sum(props["level_edges"])

    ops = [o["op"] for o in per_op]
    setup_vals = by_op.get("setup", {})
    metrics = {}
    for name in PER_LAYER:
        if name in setup_vals:
            metrics[name] = setup_vals[name]
        else:
            metrics[name] = sum(by_op.get(o, {}).get(name, 0) for o in ops) / len(ops)
    metrics["attention.edges_per_s"] = edges / edge_s if edge_s else 0.0
    metrics["trace.overhead_s"] = harness.median(
        [r["traced_s"] - r["plain_s"] for r in per_op])
    metrics["trace.replay_mismatches"] = len(mismatches)
    for kind in set(mismatches):
        for name in REPLAY_METRICS[kind]:
            metrics[name] = -1.0
    return metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_package()
    import workloads  # imports numpy, scipy and gha3d

    t_import = time.perf_counter() - T_START
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return run(args, workloads, work, t_import)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_seconds() -> float:
    """Seconds one fresh interpreter spends importing what run.py imports."""
    code = IMPORT_PROBE.format(paths=[SRC, HERE])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run(args, workloads, work, t_import) -> int:
    tracer = harness.Tracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    setup_times = []
    tracer.op = "setup"
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(tracer if (args.trace and rep == SETUP_REPEATS - 1) else None)
        setup_times.append(time.perf_counter() - t0)
    import_times = [t_import] + [import_seconds() for _ in range(2)]
    ref_setup = harness.median([harness.reference_kernel() for _ in range(3)])
    setup_s = ((harness.median(import_times) + harness.median(setup_times))
               * harness.REF_NOMINAL_S / ref_setup)

    # point_train builds its one structure in set-up; replay that build.
    mismatches, setup_props = [], {}
    if args.trace and hasattr(wl, "structure"):
        if not workloads.replay_structure(tracer, wl.structure):
            mismatches.append("structure")
        setup_props = workloads.structure_counts(wl.structure)
    tracer.op = None
    workloads.warmup(work)

    refs_loop = [harness.reference_kernel()]
    records, per_op, loop_mismatches = measure(wl, args.seconds, args.trace, tracer, refs_loop)
    mismatches += loop_mismatches
    invariant_error = wl.invariant_check()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    harness.normalize(records, refs_loop)
    raw = harness.summarize_ops(records)
    summary = harness.summarize_ops(records, normalized=True)
    e2e = {
        "ops_per_s": summary.get("ops_per_s", 0.0),
        "op_p50_s": summary.get("op_p50_s", 0.0),
        "op_tail_s": summary["tail"]["value"] if "tail" in summary else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    correct = summary["failed"] == 0 and invariant_error is None

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "invariant_error": invariant_error,
        "summary": summary, "raw_wall_summary": raw, "end_to_end": e2e,
        "setup": {"import_s": import_times, "repeats_s": setup_times, "ref_s": ref_setup},
        "ops": [{"op": r.op, "seconds": r.seconds, "ok": r.ok, "digest": r.digest,
                 "error": r.error, "info": r.info} for r in records],
        "env": harness.environment(ROOT, SRC, args.seed),
    }
    if args.trace:
        metrics = layer_metrics(tracer, per_op, mismatches, setup_props)
        record.update(per_layer=metrics, traced_ops=per_op, replay_mismatches=mismatches,
                      input_properties=({"setup": setup_props} if setup_props else
                                        {str(o["op"]): o.pop("props") for o in per_op}),
                      spans=tracer.spans)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    harness.write_json(os.path.join(args.record_dir, name), record)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print_report(args, summary, raw, metrics, units, invariant_error)
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def print_report(args, summary, raw, metrics, units, invariant_error):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {summary['attempted']}  failed {summary['failed']}  "
          f"failed_frac {summary['failed_frac']:.4g} frac")
    for name, value in metrics.items():
        line = f"  {name:28s} {value:.6g} {units[name]}"
        if name == "op_p50_s" and "tail" in summary:
            line += f"  (n={summary['tail']['samples']})"
        if name == "op_tail_s" and "tail" in summary:
            t = summary["tail"]
            line += f"  (p{t['percentile']:.1f}, {t['beyond']} beyond, n={t['samples']})"
        print(line)
    if "tail" in raw:
        print(f"  unnormalized wall time: ops_per_s {raw['ops_per_s']:.6g} 1/s, "
              f"op_p50_s {raw['op_p50_s']:.6g} s, op_tail_s {raw['tail']['value']:.6g} s")
    if invariant_error:
        print(f"  invariant: {invariant_error}")


if __name__ == "__main__":
    sys.exit(main())
