"""Stacked attention blocks: LayerNorm -> multi-head hierarchical attention
-> residual, then LayerNorm -> FFN -> residual, repeated L times.

The hierarchy's structure (topologies, sampling, parent maps) and its
positional table are computed once per forward call and shared by every
layer and head; only the projected q/k/v rows are re-coarsened per head.
Initialization, dropout masks, and Fourier frequencies all derive from the
config seed, so a forward pass is a pure function of (inputs, config).
"""

import io
import struct
from dataclasses import dataclass, fields

import numpy as np

from .analysis import MECHANISMS
from .attention import (
    _MODES,
    AttentionInputs,
    FourierEmbedding,
    dense_attention,
    gha_forward,
    make_fourier_embedding,
    positional_table,
)
from .errors import ConfigError, FormatError, InvalidInputError, UnsupportedVersionError
from .hierarchy import Hierarchy, build_hierarchy, truncate, with_values
from .seeding import substream

LAYERNORM_EPS = 1e-5


@dataclass(frozen=True)
class BlockConfig:
    n_layers: int
    model_dim: int
    ffn_dim: int
    n_heads: int
    attn_dropout: float = 0.1
    ffn_dropout: float = 0.3
    dropout_enabled: bool = False
    seed: int = 0
    embedding_mode: str = "relative"
    # gamma normally enters every layer's attention; turn off to inject it
    # only in the first layer.
    positional_every_layer: bool = True

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.model_dim < 1 or self.ffn_dim < 1 or self.n_heads < 1:
            raise ConfigError("model_dim, ffn_dim, n_heads must be positive")
        if self.model_dim % self.n_heads != 0:
            raise ConfigError(
                f"n_heads={self.n_heads} must divide model_dim={self.model_dim}"
            )
        for name in ("attn_dropout", "ffn_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {p}")
        if self.embedding_mode not in _MODES:
            raise ConfigError(f"embedding_mode must be one of {_MODES}")
        if self.embedding_mode != "none" and self.head_dim % 2 != 0:
            raise ConfigError(
                f"positional embeddings need an even head width, got {self.head_dim}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in u64")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads


@dataclass(frozen=True)
class LayerParams:
    w_q: np.ndarray  # (c, c)
    b_q: np.ndarray  # (c,)
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    w1: np.ndarray  # (c, c_f)
    b1: np.ndarray  # (c_f,)
    w2: np.ndarray  # (c_f, c)
    b2: np.ndarray  # (c,)
    ln1_gain: np.ndarray  # (c,)
    ln1_shift: np.ndarray
    ln2_gain: np.ndarray
    ln2_shift: np.ndarray


_LAYER_FIELDS = [f.name for f in fields(LayerParams)]


def _layer_shapes(c: int, c_f: int) -> dict:
    return {
        "w_q": (c, c), "b_q": (c,), "w_k": (c, c), "b_k": (c,),
        "w_v": (c, c), "b_v": (c,), "w_o": (c, c), "b_o": (c,),
        "w1": (c, c_f), "b1": (c_f,), "w2": (c_f, c), "b2": (c,),
        "ln1_gain": (c,), "ln1_shift": (c,), "ln2_gain": (c,), "ln2_shift": (c,),
    }


@dataclass(frozen=True)
class GhaBlockParams:
    config: BlockConfig
    embedding: FourierEmbedding | None
    layers: tuple

    def __post_init__(self):
        cfg = self.config
        if len(self.layers) != cfg.n_layers:
            raise InvalidInputError(
                f"expected {cfg.n_layers} layer parameter sets, got {len(self.layers)}"
            )
        shapes = _layer_shapes(cfg.model_dim, cfg.ffn_dim)
        for i, lp in enumerate(self.layers):
            for name in _LAYER_FIELDS:
                a = getattr(lp, name)
                if a.shape != shapes[name]:
                    raise InvalidInputError(
                        f"layer {i} {name}: expected shape {shapes[name]}, got {a.shape}"
                    )
                if not np.all(np.isfinite(a)):
                    raise InvalidInputError(f"layer {i} {name} contains non-finite values")
        if cfg.embedding_mode != "none":
            if self.embedding is None:
                raise InvalidInputError("config requires a positional embedding")
            if self.embedding.output_dim != cfg.head_dim:
                raise InvalidInputError(
                    f"embedding width {self.embedding.output_dim} != head width {cfg.head_dim}"
                )


def xavier_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_params(config: BlockConfig) -> GhaBlockParams:
    """Projections uniform in [-s, s] with s = sqrt(6/(fan_in+fan_out));
    biases zero, LayerNorm gain 1 / shift 0, frequencies standard normal.
    Every draw is pinned to the config seed."""
    shapes = _layer_shapes(config.model_dim, config.ffn_dim)
    layers = []
    for i in range(config.n_layers):
        rng = substream(config.seed, "params", i)
        arrays = {}
        for name, shape in shapes.items():  # weights drawn in field order
            if name.startswith("w"):
                s = xavier_bound(*shape)
                arrays[name] = rng.uniform(-s, s, size=shape)
            else:
                arrays[name] = np.ones(shape) if name.endswith("_gain") else np.zeros(shape)
        layers.append(LayerParams(**arrays))
    embedding = None
    if config.embedding_mode != "none":
        embedding = make_fourier_embedding(config.head_dim, substream(config.seed, "fourier"))
    return GhaBlockParams(config=config, embedding=embedding, layers=tuple(layers))


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray,
               eps: float = LAYERNORM_EPS) -> np.ndarray:
    mean = x.mean(axis=1, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + shift


def _dropout(x: np.ndarray, p: float, config: BlockConfig, layer: int, role: int) -> np.ndarray:
    """Inverted dropout; the mask is a pure function of (seed, layer, role)."""
    if not config.dropout_enabled or p == 0.0:
        return x
    rng = substream(config.seed, "dropout", layer, role)
    keep = rng.random(size=x.shape) >= p
    return x * keep / (1.0 - p)


def attention_structure(
    positions: np.ndarray,
    *,
    flavor: str = "point",
    k: int = 8,
    r: int = 2,
    coords: np.ndarray | None = None,
) -> Hierarchy:
    """The value-independent hierarchy skeleton block_forward attends over.

    Building it once and passing it in amortizes the sampling/topology cost
    across calls (and gives access to level sizes and edge counts)."""
    positions = np.asarray(positions, dtype=np.float64)
    placeholder = np.zeros((positions.shape[0], 1))
    return build_hierarchy(
        positions, placeholder, placeholder, placeholder,
        flavor=flavor, k=k, r=r, coords=coords,
    )


def block_forward(
    x: np.ndarray,
    positions: np.ndarray,
    params: GhaBlockParams,
    *,
    flavor: str = "point",
    k: int = 8,
    r: int = 2,
    coords: np.ndarray | None = None,
    mechanism: str = "gha",
    structure: Hierarchy | None = None,
) -> np.ndarray:
    """Run the L-layer block on (n, c) features at the given positions.

    Layer wiring is pre-norm: x += MultiHeadGHA(LN1(x)); x += FFN(LN2(x)).
    Multi-head attention projects q/k/v with full c x c matrices, splits
    the rows into n_heads contiguous groups, runs hierarchical attention
    per head on the shared structure, concatenates, and output-projects.

    mechanism selects the attention kernel: "gha" (default), "local"
    (hierarchy truncated to level 0), or "dense" (exact softmax, no
    hierarchy). A prebuilt ``structure`` from attention_structure skips
    the per-call rebuild; one built from other positions raises
    InvalidInputError.
    """
    config = params.config
    x = np.asarray(x, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    n = x.shape[0]
    if x.ndim != 2 or x.shape[1] != config.model_dim:
        raise InvalidInputError(f"x must be (n, {config.model_dim}), got {x.shape}")
    if positions.shape != (n, 3):
        raise InvalidInputError(f"positions must be ({n}, 3), got {positions.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x contains non-finite values")
    if mechanism not in MECHANISMS:
        raise InvalidInputError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")

    if mechanism != "dense":
        if structure is None:
            structure = attention_structure(positions, flavor=flavor, k=k, r=r, coords=coords)
        elif structure.levels[0].n_tokens != n:
            raise InvalidInputError(
                f"structure has {structure.levels[0].n_tokens} tokens, expected {n}"
            )
        elif not np.array_equal(structure.levels[0].positions, positions):
            raise InvalidInputError("structure was built for other positions")
        if mechanism == "local":
            structure = truncate(structure, 0)

    ch = config.head_dim
    tables = {}  # one positional table per mode, shared by every head and layer
    for layer_idx, lp in enumerate(params.layers):
        if config.embedding_mode != "none" and (config.positional_every_layer or layer_idx == 0):
            mode, emb = config.embedding_mode, params.embedding
        else:
            mode, emb = "none", None
        if mechanism != "dense" and mode not in tables:
            tables[mode] = positional_table(structure, emb, mode)

        h = layer_norm(x, lp.ln1_gain, lp.ln1_shift)
        q = h @ lp.w_q + lp.b_q
        k_rows = h @ lp.w_k + lp.b_k
        v = h @ lp.w_v + lp.b_v
        head_outs = []
        for head in range(config.n_heads):
            sl = slice(head * ch, (head + 1) * ch)
            if mechanism == "dense":
                inputs = AttentionInputs(
                    q=q[:, sl], k=k_rows[:, sl], v=v[:, sl], positions=positions,
                    embedding=emb, embedding_mode=mode,
                )
                head_outs.append(dense_attention(inputs).z)
            else:
                hh = with_values(structure, q=q[:, sl], k=k_rows[:, sl], v=v[:, sl])
                head_outs.append(gha_forward(hh, emb, mode, tables[mode]).z)
        attn = np.concatenate(head_outs, axis=1) @ lp.w_o + lp.b_o
        x = x + _dropout(attn, config.attn_dropout, config, layer_idx, 0)

        f = layer_norm(x, lp.ln2_gain, lp.ln2_shift)
        u = np.maximum(f @ lp.w1 + lp.b1, 0.0)
        u = _dropout(u, config.ffn_dropout, config, layer_idx, 1)
        u = u @ lp.w2 + lp.b2
        u = _dropout(u, config.ffn_dropout, config, layer_idx, 2)
        x = x + u
    return x


# ---------------------------------------------------------------------------
# Parameter serialization: magic GHAB, version u32, config block, then each
# tensor as u32 ndim, u32 dims, little-endian f64 data. Fixed tensor order:
# embedding frequencies (behind a presence flag), then per layer the fields
# of LayerParams in declaration order.
# ---------------------------------------------------------------------------

PARAMS_MAGIC = b"GHAB"
PARAMS_VERSION = 1

_CONFIG_STRUCT = struct.Struct("<4I2d3BQ")  # dims, dropouts, flags, seed


def _write_tensor(f, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64)
    f.write(struct.pack("<I", a.ndim))
    f.write(struct.pack(f"<{a.ndim}I", *a.shape))
    f.write(a.astype("<f8").tobytes())


def _read_exact(f, size: int) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise FormatError("parameter file is truncated")
    return data


def _read_tensor(f) -> np.ndarray:
    (ndim,) = struct.unpack("<I", _read_exact(f, 4))
    if ndim > 2:
        raise FormatError(f"unexpected tensor rank {ndim}")
    shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim))
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    data = _read_exact(f, 8 * count)
    return np.frombuffer(data, dtype="<f8").reshape(shape).copy()


def save_params(params: GhaBlockParams, path) -> None:
    cfg = params.config
    buf = io.BytesIO()
    buf.write(PARAMS_MAGIC)
    buf.write(struct.pack("<I", PARAMS_VERSION))
    buf.write(_CONFIG_STRUCT.pack(
        cfg.n_layers, cfg.model_dim, cfg.ffn_dim, cfg.n_heads,
        cfg.attn_dropout, cfg.ffn_dropout,
        int(cfg.dropout_enabled), int(cfg.positional_every_layer),
        _MODES.index(cfg.embedding_mode), cfg.seed,
    ))
    buf.write(struct.pack("<B", int(params.embedding is not None)))
    if params.embedding is not None:
        _write_tensor(buf, params.embedding.frequencies)
    for lp in params.layers:
        for name in _LAYER_FIELDS:
            _write_tensor(buf, getattr(lp, name))
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_params(path) -> GhaBlockParams:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != PARAMS_MAGIC:
            raise FormatError(f"bad magic {magic!r} (expected GHAB)")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != PARAMS_VERSION:
            raise UnsupportedVersionError(f"unsupported parameter file version {version}")
        raw = _CONFIG_STRUCT.unpack(_read_exact(f, _CONFIG_STRUCT.size))
        n_layers, model_dim, ffn_dim, n_heads = raw[0:4]
        attn_dropout, ffn_dropout = raw[4:6]
        dropout_enabled, positional_every_layer, mode_idx = raw[6:9]
        seed = raw[9]
        if mode_idx >= len(_MODES):
            raise FormatError(f"unknown embedding mode code {mode_idx}")
        try:
            config = BlockConfig(
                n_layers=n_layers, model_dim=model_dim, ffn_dim=ffn_dim, n_heads=n_heads,
                attn_dropout=attn_dropout, ffn_dropout=ffn_dropout,
                dropout_enabled=bool(dropout_enabled), seed=seed,
                embedding_mode=_MODES[mode_idx],
                positional_every_layer=bool(positional_every_layer),
            )
        except ConfigError as e:
            raise FormatError(f"invalid config block: {e}") from None
        (has_embedding,) = struct.unpack("<B", _read_exact(f, 1))
        embedding = FourierEmbedding(frequencies=_read_tensor(f)) if has_embedding else None
        layers = []
        for _ in range(config.n_layers):
            vals = {name: _read_tensor(f) for name in _LAYER_FIELDS}
            layers.append(LayerParams(**vals))
        trailing = f.read(1)
        if trailing:
            raise FormatError("trailing bytes after parameter tensors")
    try:
        return GhaBlockParams(config=config, embedding=embedding, layers=tuple(layers))
    except InvalidInputError as e:
        raise FormatError(str(e)) from None
