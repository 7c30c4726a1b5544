import csv
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import gha3d.analysis as analysis
import gha3d.cli as cli
from gha3d.block import BlockConfig, init_params, save_params
from gha3d.cli import _expand_config, main
from gha3d.errors import ConfigError, InvariantViolation
from gha3d.geometry import load_point_cloud_binary, save_point_cloud_binary


@pytest.fixture
def cloud_file(tmp_path):
    rng = np.random.default_rng(41)
    pts = rng.uniform(0.0, 1.0, size=(48, 3))
    path = tmp_path / "cloud.txt"
    lines = ["# unit cube sample"]
    lines += [f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in pts]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Config expansion
# ---------------------------------------------------------------------------

def test_expand_config_injects_after_subcommand(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("k = 2\nsizes = 16  # trailing comment\n\n# full-line comment\n")
    out = _expand_config(["bench", "--config", str(cfg), "--k", "3"])
    assert out == ["bench", "--k", "2", "--sizes", "16", "--k", "3"]


def test_expand_config_equals_form_and_underscores(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("voxel_size = 0.25\n")
    out = _expand_config(["hist", f"--config={cfg}", "--input", "x"])
    assert out == ["hist", "--voxel-size", "0.25", "--input", "x"]


def test_expand_config_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("just a bare word\n")
    with pytest.raises(ConfigError):
        _expand_config(["bench", "--config", str(cfg)])
    with pytest.raises(ConfigError):
        _expand_config(["bench", "--config"])


def test_config_file_defaults_yield_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("k = 2\nsizes = 24\n")
    assert main(["bench", "--config", str(cfg)]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert rows[0][3] == "2"  # k column from config

    assert main(["bench", "--config", str(cfg), "--k", "3"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert rows[0][3] == "3"  # explicit flag wins


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["bench", "--config", str(tmp_path / "nope")]) == 2


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_binary_output(cloud_file, tmp_path, capsys):
    out = tmp_path / "out.gpc"
    code = main(["run", "--input", cloud_file, "--output", str(out),
                 "--k", "4", "--layers", "1", "--model-dim", "8", "--heads", "2"])
    assert code == 0
    msg = capsys.readouterr().out
    assert "tokens=48" in msg and "weight_count=" in msg
    result = load_point_cloud_binary(out)
    assert result.features.shape == (48, 8)
    src = np.loadtxt(cloud_file)
    np.testing.assert_allclose(result.positions, src, atol=1e-6)  # f32 storage


def test_run_byte_identical_and_thread_independent(cloud_file, tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"{name}.gpc"
        code = main(["run", "--input", cloud_file, "--output", str(out),
                     "--k", "4", "--threads", threads])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_run_uses_input_features_exactly(tmp_path):
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(20, 3))
    feats = rng.normal(size=(20, 4))
    cloud = tmp_path / "feat.txt"
    rows = [" ".join(repr(float(v)) for v in np.concatenate([p, f])) for p, f in zip(pts, feats)]
    cloud.write_text("\n".join(rows) + "\n")

    out = tmp_path / "out.gpc"
    code = main(["run", "--input", str(cloud), "--output", str(out), "--k", "3",
                 "--layers", "1", "--model-dim", "4", "--ffn-dim", "8",
                 "--heads", "1", "--embedding", "none", "--seed", "9"])
    assert code == 0

    from gha3d.block import block_forward
    params = init_params(BlockConfig(n_layers=1, model_dim=4, ffn_dim=8, n_heads=1,
                                     seed=9, embedding_mode="none"))
    want = block_forward(feats, pts, params, k=3, r=2)
    expect = tmp_path / "want.gpc"
    save_point_cloud_binary(expect, pts, want)
    assert out.read_bytes() == expect.read_bytes()


def test_run_feature_width_mismatch_is_usage_error(tmp_path, capsys):
    cloud = tmp_path / "feat.txt"
    cloud.write_text("0 0 0 1 2\n1 0 0 3 4\n4 4 4 5 6\n")
    code = main(["run", "--input", str(cloud), "--output", str(tmp_path / "o.gpc"),
                 "--model-dim", "8"])
    assert code == 2
    assert "wide" in capsys.readouterr().err


def test_run_loads_saved_params(cloud_file, tmp_path):
    params = init_params(BlockConfig(n_layers=1, model_dim=6, ffn_dim=12, n_heads=1,
                                     seed=3, embedding_mode="none"))
    pfile = tmp_path / "m.ghab"
    save_params(params, pfile)
    out = tmp_path / "out.gpc"
    code = main(["run", "--input", cloud_file, "--output", str(out),
                 "--params", str(pfile), "--k", "4", "--seed", "3"])
    assert code == 0
    assert load_point_cloud_binary(out).features.shape == (48, 6)


def test_run_voxel_flavor(cloud_file, tmp_path, capsys):
    out = tmp_path / "vox.gpc"
    code = main(["run", "--input", cloud_file, "--output", str(out),
                 "--flavor", "voxel", "--voxel-size", "0.4",
                 "--layers", "1", "--model-dim", "8", "--heads", "2"])
    assert code == 0
    n_cells = load_point_cloud_binary(out).positions.shape[0]
    assert 1 < n_cells <= 48
    assert f"tokens={n_cells}" in capsys.readouterr().out


def test_run_dense_mechanism_and_cap(cloud_file, tmp_path, monkeypatch):
    out = tmp_path / "dense.gpc"
    assert main(["run", "--input", cloud_file, "--output", str(out),
                 "--mechanism", "dense", "--layers", "1"]) == 0
    monkeypatch.setattr(cli, "PROBE_CAP", 16)
    assert main(["run", "--input", cloud_file, "--output", str(out),
                 "--mechanism", "dense", "--layers", "1"]) == 2


def test_run_missing_input_names_path(tmp_path, capsys):
    code = main(["run", "--input", str(tmp_path / "gone.txt"),
                 "--output", str(tmp_path / "o.gpc")])
    assert code == 2
    assert "gone.txt" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare / bench / hist / heatmap
# ---------------------------------------------------------------------------

def test_compare_writes_report(cloud_file, tmp_path):
    out = tmp_path / "rep.csv"
    code = main(["compare", "--input", cloud_file, "--k", "4", "--output", str(out)])
    assert code == 0
    header, rows = read_csv(out.read_text())
    assert header[0] == "n_tokens" and rows[0][0] == "48"
    assert float(rows[0][5]) >= 0.0  # max_rel_err


def test_compare_broken_rows_exit_1(cloud_file, monkeypatch, capsys):
    # The row-stochastic check lives in approximation_report, on its probe.
    monkeypatch.setattr(analysis, "effective_attention",
                        lambda *a, **kw: np.full((48, 48), 0.5))
    assert main(["compare", "--input", cloud_file, "--k", "4"]) == 1
    assert "invariant violation" in capsys.readouterr().err


def test_compare_reads_weights_once(cloud_file, monkeypatch, capsys):
    forwards, blocks = [], []
    forward_core, rows = analysis._forward_core, analysis._effective_rows

    def counting_forward(*args, **kwargs):
        forwards.append(kwargs.get("want_cache"))
        return forward_core(*args, **kwargs)

    def counting_rows(h, forward, queries):
        blocks.append(queries.tolist())
        return rows(h, forward, queries)

    monkeypatch.setattr(analysis, "_forward_core", counting_forward)
    monkeypatch.setattr(analysis, "_effective_rows", counting_rows)
    assert main(["compare", "--input", cloud_file, "--k", "4"]) == 0
    capsys.readouterr()
    # One effective_attention: one cached forward, then one 48-row block.
    assert forwards == [True]
    assert blocks == [list(range(48))]


def test_compare_bytes_independent_of_blas_threads(tmp_path):
    # At 2000 tokens a BLAS gemm rounds differently on 1 and 2 threads; the
    # dense reference must not go through it.
    pts = np.random.default_rng(3).normal(size=(2000, 3))
    path = tmp_path / "cloud.txt"
    path.write_text("\n".join(" ".join(repr(float(c)) for c in p) for p in pts) + "\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "gha3d.cli", "compare", "--input", str(path), "--dim", "8"],
            capture_output=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_bench_stdout_and_dense_counts(capsys):
    assert main(["bench", "--sizes", "16,32", "--mechanism", "dense"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert [int(r[6]) for r in rows] == [256, 1024]


def test_bench_bound_violation_exit_1(monkeypatch, capsys):
    def boom(*a, **kw):
        raise InvariantViolation("weight count exceeds the linear bound")
    monkeypatch.setattr(cli, "scaling_sweep", boom)
    assert main(["bench", "--sizes", "16"]) == 1
    assert "bound" in capsys.readouterr().err


def test_bench_bad_sizes_exit_2(capsys):
    assert main(["bench", "--sizes", "12,oops"]) == 2
    capsys.readouterr()


def test_hist_mass_totals_tokens(cloud_file, capsys):
    assert main(["hist", "--input", cloud_file, "--k", "4", "--bins", "16",
                 "--mechanism", "local"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 16
    assert sum(float(r[3]) for r in rows) == pytest.approx(48.0, abs=1e-9)


def test_heatmap_row_is_distribution(cloud_file, capsys):
    assert main(["heatmap", "--input", cloud_file, "--k", "4", "--query", "7"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 48
    weights = np.array([float(r[3]) for r in rows])
    assert weights.min() >= 0.0
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_heatmap_bytes_independent_of_threads(cloud_file, tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / f"{name}.csv"
        assert main(["heatmap", "--input", cloud_file, "--k", "4", "--query", "11",
                     "--embedding", "relative", "--threads", threads,
                     "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_heatmap_absolute_embedding(cloud_file, capsys):
    assert main(["heatmap", "--input", cloud_file, "--k", "4", "--query", "3",
                 "--embedding", "absolute"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    weights = np.array([float(r[3]) for r in rows])
    assert len(rows) == 48 and weights.min() >= 0.0
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_heatmap_query_out_of_range(cloud_file, capsys):
    assert main(["heatmap", "--input", cloud_file, "--query", "999"]) == 2
    capsys.readouterr()


def test_outputs_independent_of_threads_env(cloud_file, tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["compare", "--input", cloud_file, "--k", "4",
                 "--threads", "1", "--output", str(a)]) == 0
    monkeypatch.setenv("GHA_THREADS", "6")
    assert main(["compare", "--input", cloud_file, "--k", "4",
                 "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_threads_env_is_usage_error(cloud_file, monkeypatch, capsys):
    monkeypatch.setenv("GHA_THREADS", "many")
    assert main(["compare", "--input", cloud_file, "--k", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "compare", "bench", "hist", "heatmap", "selftest"])
def test_every_subcommand_rejects_a_bad_thread_count(command, cloud_file, tmp_path, monkeypatch,
                                                     capsys):
    """Threads are resolved before any subcommand runs, including those
    that run single-threaded: a bad count is a usage error everywhere."""
    argv = {
        "run": ["run", "--input", cloud_file, "--output", str(tmp_path / "z.gpc")],
        "compare": ["compare", "--input", cloud_file, "--k", "4"],
        "bench": ["bench", "--sizes", "200"],
        "hist": ["hist", "--input", cloud_file, "--k", "4"],
        "heatmap": ["heatmap", "--input", cloud_file, "--k", "4"],
        "selftest": ["selftest"],
    }[command]
    for bad in ("0", "-3"):
        assert main(argv + ["--threads", bad]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err
    monkeypatch.setenv("GHA_THREADS", "many")
    assert main(argv) == 2
    assert "GHA_THREADS must be an integer" in capsys.readouterr().err
    assert main(argv + ["--threads", "1"]) == 0  # an explicit flag wins over the variable
    capsys.readouterr()


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "4/4 checks passed" in out


def test_selftest_fault_injection_fails(monkeypatch, capsys):
    real_forward = cli.gha_forward

    def flipped_forward(*args, **kwargs):
        res = real_forward(*args, **kwargs)
        return dataclasses.replace(res, z=-res.z)

    monkeypatch.setattr(cli, "gha_forward", flipped_forward)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "4/4" not in out


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------

def test_module_entry_point_runs_without_warnings():
    # `python -m gha3d.cli` must not find gha3d.cli already imported by the
    # package, which makes runpy emit a RuntimeWarning.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gha3d.cli", "selftest"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "4/4 checks passed" in proc.stdout


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["bench", "--wat", "1"]) == 2
    capsys.readouterr()


def test_binary_cloud_input_accepted(tmp_path):
    rng = np.random.default_rng(44)
    pts = rng.normal(size=(24, 3))
    src = tmp_path / "c.gpc"
    save_point_cloud_binary(src, pts, None)
    out = tmp_path / "o.gpc"
    assert main(["run", "--input", str(src), "--output", str(out), "--k", "3",
                 "--layers", "1", "--model-dim", "8", "--heads", "2"]) == 0
    assert load_point_cloud_binary(out).features.shape == (24, 8)
