"""tools/bench.py: each suite's cell, run in this interpreter on a small
cloud, and one cell run as the script's own child on this tree."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gha3d import hierarchy
from gha3d.hierarchy import build_hierarchy

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("_knn_topology", "_fps_in_order")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_cell_times_its_stages_and_restores_them(bench):
    stages = [getattr(hierarchy, name) for name in STAGES]
    fig = bench.build("uniform", 600)
    assert list(fig) == ["knn_s", "fps_s", "pool_s", "build_s", "us_per_token", "levels"]
    assert [getattr(hierarchy, name) for name in STAGES] == stages
    assert fig["knn_s"] > 0 and fig["fps_s"] > 0 and fig["pool_s"] >= 0
    assert fig["knn_s"] + fig["fps_s"] + fig["pool_s"] == pytest.approx(fig["build_s"])
    rng = np.random.default_rng(17)
    pos = rng.uniform(0.0, 1.0, size=(600, 3))
    q, k, v = (rng.normal(size=(600, 8)) for _ in range(3))
    assert fig["levels"] == len(build_hierarchy(pos, q, k, v, k=8, r=2).levels)


@pytest.mark.parametrize("stage", STAGES)
def test_build_cell_refuses_a_tree_without_a_stage(bench, monkeypatch, stage):
    # A stage the tree lacks raises instead of reading 0 s, and the other
    # stage is left unwrapped.
    kept = {name: getattr(hierarchy, name) for name in STAGES if name != stage}
    monkeypatch.delattr(hierarchy, stage)
    with pytest.raises(AttributeError, match=stage):
        bench.build("uniform", 600)
    assert all(getattr(hierarchy, name) is fn for name, fn in kept.items())


def test_kernels_cell_reports_the_structure_it_timed(bench):
    fig = bench.kernels("uniform", 600)
    assert list(fig) == ["structure_mib", "table_s", "with_values_s", "forward_s",
                         "forward_peak_mb", "backward_s", "backward_peak_mb", "backward_alone_s",
                         "pass_mib", "tokens", "edges"]
    assert all(fig[key] > 0 for key in ("table_s", "with_values_s", "forward_s",
                                        "forward_peak_mb", "backward_s", "backward_peak_mb",
                                        "backward_alone_s"))
    rng = np.random.default_rng(19)
    pos = rng.uniform(0.0, 1.0, size=(600, 3))
    q, k, v = (rng.normal(size=(600, 8)) for _ in range(3))
    h = build_hierarchy(pos, q, k, v, k=8, r=2)
    assert fig["tokens"] == 600
    assert fig["edges"] == sum(lv.topology.total_edges for lv in h.levels)
    # The structure's size counts each array a level holds once.
    held = [a for lv in h.levels
            for a in (lv.positions, lv.q_tilde, lv.k_tilde, lv.v_tilde, lv.topology.indptr,
                      lv.topology.indices, lv.parent_of, lv.selected, lv.order, lv.pool_indptr,
                      lv.pool_indices, lv.pull_indptr, lv.pull_indices)
            if a is not None]
    assert fig["structure_mib"] * 2**20 == bench.structure_bytes(h) == sum(a.nbytes for a in held)
    # The pass holds level 0's edge weights, besides O(N) rows per level.
    assert fig["pass_mib"] * 2**20 > 8 * h.levels[0].topology.total_edges


def test_kernels_cell_times_each_kernel_after_an_untimed_call(bench, monkeypatch):
    # The table is timed on its one first call; every other kernel runs once
    # untimed, then CALLS timed calls, and forward and backward once more
    # for the peak. The backward after the forward reads its pass; the
    # backward alone runs on a fresh with_values copy, which holds none.
    from gha3d import attention
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            held = args[0].forward_pass is not None
            calls.append((name, held) if name == "gha_backward" else name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((attention, "positional_table"), (hierarchy, "with_values"),
                         (attention, "gha_forward"), (attention, "gha_backward")):
        counted(module, name)
    bench.kernels("uniform", 600)
    runs = 1 + bench.CALLS
    assert bench.CALLS == 3
    assert calls == (["with_values", "positional_table"]  # the build's, then the table
                     + ["with_values"] * runs + ["gha_forward"] * (runs + 1)
                     + [("gha_backward", True)] * (runs + 1)
                     + ["with_values", ("gha_backward", False)] * runs)


def test_block_cell_times_warm_calls_then_traces_one_more(bench, monkeypatch):
    # One untimed call, CALLS timed ones, then one under tracemalloc, all on
    # voxel_infer's block settings and one structure built from the case.
    from gha3d import block
    real, calls = block.block_forward, []

    def counted(x, positions, params, **kwargs):
        calls.append((x.shape, params.config, kwargs["structure"]))
        return real(x, positions, params, **kwargs)

    monkeypatch.setattr(block, "block_forward", counted)
    fig = bench.block("uniform", 600)
    assert list(fig) == ["block_s", "block_peak_mb", "tokens"]
    assert fig["block_s"] > 0 and fig["block_peak_mb"] > 0 and fig["tokens"] == 600
    assert len(calls) == 1 + bench.CALLS + 1
    shape, config, structure = calls[0]
    assert shape == (600, 32) and all(call[2] is structure for call in calls)
    assert (config.n_layers, config.n_heads, config.model_dim, config.ffn_dim,
            config.embedding_mode) == (2, 4, 32, 64, "relative")
    assert (structure.flavor, structure.neighborhood_k) == ("point", bench.K)


def test_structure_size_counts_the_width_classes(bench, every_width_cells):
    # Ragged windows hold their width classes in three int32 arrays, rows
    # and two per edge; a one-width topology's classes view its own map.
    h = hierarchy.attention_structure(every_width_cells + 0.5, flavor="voxel",
                                      coords=every_width_cells)
    held = [a for lv in h.levels
            for a in (lv.positions, lv.topology.indptr, lv.topology.indices, lv.parent_of,
                      lv.coords, lv.order, lv.pool_indptr, lv.pool_indices, lv.pull_indptr,
                      lv.pull_indices)
            if a is not None]
    ragged = [lv for lv in h.levels if len(lv.topology.classes) > 1]
    assert ragged
    classes = sum(4 * lv.n_tokens + 8 * lv.topology.total_edges for lv in ragged)
    assert bench.structure_bytes(h) == sum(a.nbytes for a in held) + classes


def test_child_cell_runs_the_named_tree(bench):
    fig = bench.run_cell("build", str(ROOT / "src"), "distinct10/600")
    assert fig["levels"] == bench.build("distinct10", 600)["levels"]


def test_record_command_holds_no_machine_path(bench, tmp_path, monkeypatch):
    # A tree inside the working directory is written relative to it; any
    # other as <label checkout>/ and its last component, however it was named.
    work, other = tmp_path / "work", tmp_path / "old"
    (work / "src").mkdir(parents=True)
    monkeypatch.chdir(work)
    argv = ["kernels", str(work / "BENCH_kernels.json"), f"parent={other}/src", f"change={work}/src",
            "base=../old/src", "here=src"]
    assert bench._command(argv) == (
        "python3 tools/bench.py kernels BENCH_kernels.json parent=<parent checkout>/src"
        " change=src base=<base checkout>/src here=src")
    assert str(tmp_path) not in bench._command(["build", str(other / "out.json"), "a=src"])
