"""Measurement machinery shared by the workloads: spans, op accounting,
percentiles, digests and the environment record.

Nothing here imports gha3d, so the statistics can be tested on their own.
"""

import hashlib
import json
import os
import platform
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Seeds at or above this value are held out: no run made while the
# benchmark or a change measured by it is being written may use them, so a
# claimed gain can be re-checked on inputs nobody tuned for.
HELD_OUT_MIN = 1_000_000
HELD_OUT_SEED = 7_919_003


def parse_seed(text: str) -> int:
    """`held-out` names the reserved seed; anything else must be an int >= 0."""
    if text == "held-out":
        return HELD_OUT_SEED
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return float(xs[mid]) if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> dict:
    """The highest nearest-rank percentile with at least ``beyond`` samples
    above it.

    With n samples that is rank n - beyond (1-based), i.e. percentile
    100 * (n - beyond) / n. When n <= beyond no percentile qualifies; the
    maximum is reported instead and ``beyond`` in the result reads 0, so
    the shortfall is visible next to the number.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no values")
    rank = n - beyond if n > beyond else n
    return {
        "value": float(xs[rank - 1]),
        "percentile": 100.0 * rank / n,
        "rank": rank,
        "beyond": n - rank,
        "samples": n,
    }


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median with Python's default quantile method."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# Reference-kernel seconds that normalized times are scaled to; about what
# the kernel takes on a 2-core x86-64 VM with NumPy 2.4 and OpenBLAS 0.3.
REF_NOMINAL_S = 0.12


def reference_kernel() -> float:
    """Seconds for a fixed piece of NumPy work shaped like the package's
    hot loops: many small-array steps (as in farthest-point sampling),
    edge-list gathers, dot products and scatter-adds on an L2-sized token
    set, and a lexsort, gather and segment reduction over arrays several
    MB large. It never calls gha3d, so its time tracks only how fast the
    machine is running right now, for both cache-resident and
    memory-bound work."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.uniform(size=(8192, 3))
    rows = np.repeat(np.arange(8192), 8)
    cols = rng.integers(0, 8192, size=rows.shape[0])
    q = rng.normal(size=(8192, 8))
    big = rng.normal(size=(131072, 8))
    keys = rng.integers(0, 1 << 20, size=big.shape[0])
    m = np.full(8192, np.inf)
    d = np.empty_like(a)
    d2 = np.empty(8192)
    t0 = time.perf_counter()
    for i in range(200):
        np.subtract(a, a[i], out=d)
        np.einsum("ij,ij->i", d, d, out=d2)
        np.minimum(m, d2, out=m)
        int(np.argmax(m))
    starts = np.arange(0, rows.shape[0], 8)
    for _ in range(2):
        s = np.einsum("ed,ed->e", q[rows], q[cols])
        t = np.exp(s - np.maximum.reduceat(s, starts)[rows])
        acc = np.zeros_like(q)
        np.add.at(acc, cols, t[:, None] * q[rows])
    order = np.lexsort((keys, big[:, 1], big[:, 0]))
    np.add.reduceat(big[order], np.arange(0, big.shape[0], 8), axis=0)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Op accounting
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    op: int
    seconds: float
    ok: bool
    digest: str | None = None
    error: str | None = None
    info: dict = field(default_factory=dict)


def run_op(op: int, fn, check) -> OpRecord:
    """Time ``fn()`` and check its result outside the timed region.

    ``fn`` returns whatever ``check`` needs; ``check(result)`` returns
    ``(digest, info)`` or raises ``AssertionError`` (or any exception) on
    a wrong output. Raising inside ``fn`` also counts as a failed op.
    """
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as e:  # a crashing op is a failed op, not a crashed benchmark
        return OpRecord(op, time.perf_counter() - t0, False, error=f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - t0
    try:
        digest, info = check(result)
    except Exception as e:
        return OpRecord(op, seconds, False, error=f"check failed: {type(e).__name__}: {e}")
    return OpRecord(op, seconds, True, digest=digest, info=info)


def summarize_ops(records, normalized: bool = False) -> dict:
    """End-to-end statistics of a closed loop with one client.

    Throughput is successful ops per second of op time (the client has no
    think time, so this is ops per wall second of the program running);
    the percentiles come from successful ops only. Failures are carried by
    ``failed`` and ``failed_frac``. ``normalized`` reads each op's
    speed-normalized seconds (see ``normalize``) instead of its wall time.
    """
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    times = [r.info["norm_s"] if normalized else r.seconds for r in records if r.ok]
    out = {"attempted": attempted, "failed": failed,
           "failed_frac": failed / attempted if attempted else 1.0}
    if times:
        out["ops_per_s"] = len(times) / sum(times)
        out["op_p50_s"] = median(times)
        out["tail"] = tail_percentile(times)
    return out


def normalize(records, refs, nominal: float = REF_NOMINAL_S) -> None:
    """Attach to op i the reference-kernel time around it (mean of refs[i]
    and refs[i + 1], taken just before and after it) and its wall time
    rescaled to a machine on which the kernel takes ``nominal`` seconds."""
    for rec, before, after in zip(records, refs, refs[1:]):
        rec.info["ref_s"] = (before + after) / 2.0
        rec.info["norm_s"] = rec.seconds * nominal / rec.info["ref_s"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compare_digests(a: dict, b: dict) -> dict:
    """Compare the per-op output digests of two run records.

    Only records of the same workload and seed are comparable; ops are
    matched by index, so runs that completed different numbers of ops
    still compare on the ops both completed.
    """
    for key in ("workload", "seed"):
        if a[key] != b[key]:
            raise ValueError(f"records differ in {key}: {a[key]!r} vs {b[key]!r}")
    da = {o["op"]: o["digest"] for o in a["ops"] if o["digest"] is not None}
    db = {o["op"]: o["digest"] for o in b["ops"] if o["digest"] is not None}
    common = sorted(set(da) & set(db))
    mismatched = [i for i in common if da[i] != db[i]]
    return {"compared": len(common), "mismatched": mismatched}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: (name, start, end, parent, op) plus per-span counts.

    Spans nest through an explicit stack; ``op`` tags every span with the
    op that caused it. Nothing is written until the run ends.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "counts": dict(counts)}
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, calls: list):
        """``fn`` inside a span, with (args, kwargs, result) appended to ``calls``."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result
        return traced


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    direct children cover (overlapping children are merged first)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s["end"] - s["start"]) - covered)
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict:
    try:
        proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            out[parts[0].lower()] = int(parts[1])
    return out


def _git_commit(root: str) -> str | None:
    """Commit of a git checkout at ``root``, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def source_digest(src_dir: str) -> str:
    """sha256 over the package's .py files (relative path + bytes), so a
    record identifies the code even outside a git checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(root: str, src_dir: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cache_bytes": _cache_sizes(),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(src_dir),
        "seed": seed,
        "held_out_seed": seed >= HELD_OUT_MIN,
    }


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
