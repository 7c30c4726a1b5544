"""Stacked attention blocks: LayerNorm -> multi-head hierarchical attention
-> residual, then LayerNorm -> FFN -> residual, repeated L times.

The hierarchy's structure (topologies, sampling, parent maps) is built
once by the caller (``attention_structure``), and its positional terms once
per structure; both are shared by every layer and head, and only the
projected q/k/v rows are coarsened per head (``with_values``).
Initialization, dropout masks, and Fourier frequencies all derive from the
config seed, so a forward pass is a pure function of (inputs, config).
"""

import io
import struct
from dataclasses import dataclass, fields

import numpy as np

from .attention import (
    _MODES,
    MECHANISMS,
    AttentionInputs,
    FourierEmbedding,
    dense_attention,
    gha_forward,
    make_fourier_embedding,
)
from .errors import ConfigError, FormatError, InvalidInputError, UnsupportedVersionError
from .geometry import _checked, _freeze, _integer
from .hierarchy import Hierarchy, truncate, with_values
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
        for name in ("n_layers", "model_dim", "ffn_dim", "n_heads"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.model_dim % self.n_heads != 0:
            raise ConfigError(
                f"n_heads={self.n_heads} must divide model_dim={self.model_dim}"
            )
        for name in ("attn_dropout", "ffn_dropout"):
            p = float(_checked(getattr(self, name), name, ()))
            object.__setattr__(self, name, p)
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

    def __post_init__(self):  # GhaBlockParams checks the widths against its config
        for name in _LAYER_FIELDS:
            a = _checked(getattr(self, name), name, (None,) * (2 if name[0] == "w" else 1))
            object.__setattr__(self, name, _freeze(a))


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
            for name, shape in shapes.items():
                _checked(getattr(lp, name), f"layer {i} {name}", shape)
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
    """Each row less its mean over its standard deviation, then ``gain``
    and ``shift``. A row of finite features whose mean or variance
    overflows is normalized again scaled by 2^-e, e the exponent of its
    largest magnitude: its variance scales by the even power 2^-2e, so the
    square root scales exactly, and eps is absorbed at such a variance.
    Every other row keeps the plain computation's bits."""
    with np.errstate(over="ignore", invalid="ignore"):  # mended below
        mean = x.mean(axis=1, keepdims=True)
        out = x - mean
        var = np.mean(out * out, axis=1, keepdims=True)
        out /= np.sqrt(var + eps)
    bad = np.flatnonzero(~(np.maximum(np.abs(mean), var)[:, 0] < np.inf))  # inf or NaN
    if bad.size:
        rows = x.take(bad, axis=0)
        scaled = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1, keepdims=True))[1])
        centred = scaled - scaled.mean(axis=1, keepdims=True)
        sd = np.sqrt(np.mean(centred**2, axis=1, keepdims=True))
        # A zero variance leaves each centred entry 0, as eps would.
        out[bad] = np.divide(centred, sd, out=np.zeros_like(centred), where=sd > 0.0)
    if (np.result_type(out, gain, shift) != out.dtype
            or np.broadcast_shapes(out.shape, np.shape(gain), np.shape(shift)) != out.shape):
        return out * gain + shift  # promoted or broadcast: not in place
    out *= gain
    out += shift
    return out


def _dropout(x: np.ndarray, p: float, config: BlockConfig, layer: int, role: int) -> np.ndarray:
    """Inverted dropout; the mask is a pure function of (seed, layer, role)."""
    if not config.dropout_enabled or p == 0.0:
        return x
    rng = substream(config.seed, "dropout", layer, role)
    keep = rng.random(size=x.shape) >= p
    return x * keep / (1.0 - p)


def block_forward(
    x: np.ndarray,
    positions: np.ndarray,
    params: GhaBlockParams,
    *,
    mechanism: str = "gha",
    structure: Hierarchy | None = None,
) -> np.ndarray:
    """Run the L-layer block on (n, c) features at the given positions.

    Layer wiring is pre-norm: x += MultiHeadGHA(LN1(x)); x += FFN(LN2(x)).
    Multi-head attention projects q/k/v with full c x c matrices, splits
    each projection's columns into n_heads contiguous groups, runs
    hierarchical attention per head on the shared structure, concatenates,
    and output-projects. One head's values are held at a time: each
    projection is cut into per-head arrays as soon as it is made, and a
    head's arrays are dropped once its pass has copied them, so a layer
    never holds its LayerNorm output or a whole projection next to a pass.

    mechanism selects the attention kernel: "gha" (default), "local"
    (hierarchy truncated to level 0), or "dense" (exact softmax, no
    hierarchy). "gha" and "local" attend over ``structure``, which
    ``attention_structure`` builds from these positions; "dense" takes
    none. A missing structure, one built from other positions, or one
    passed to "dense" raises InvalidInputError.
    """
    config = params.config
    x = _checked(x, "x", (None, config.model_dim))
    n = x.shape[0]
    positions = _checked(positions, "positions", (n, 3))
    if mechanism not in MECHANISMS:
        raise InvalidInputError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")

    if mechanism == "dense":
        if structure is not None:
            raise InvalidInputError('mechanism "dense" attends over no structure')
    elif structure is None:
        raise InvalidInputError(f"mechanism {mechanism!r} needs a structure (attention_structure)")
    elif not np.array_equal(structure.levels[0].positions, positions):
        raise InvalidInputError("structure was built for other positions")
    elif mechanism == "local":
        structure = truncate(structure, 0)

    ch = config.head_dim
    for layer_idx, lp in enumerate(params.layers):
        if config.embedding_mode != "none" and (config.positional_every_layer or layer_idx == 0):
            mode, emb = config.embedding_mode, params.embedding
        else:
            mode, emb = "none", None

        # In place where the bits allow: x @ w, then += b, is x @ w + b.
        # Each projection is made whole (a product per head would round
        # differently) and cut into one contiguous array per head at once.
        h = layer_norm(x, lp.ln1_gain, lp.ln1_shift)
        qs, ks, vs = [], [], []
        for heads, w, b in ((qs, lp.w_q, lp.b_q), (ks, lp.w_k, lp.b_k), (vs, lp.w_v, lp.b_v)):
            rows = h @ w
            rows += b
            heads.extend(np.ascontiguousarray(rows[:, i * ch:(i + 1) * ch])
                         for i in range(config.n_heads))
            del rows
        del h
        head_outs = []
        for _ in range(config.n_heads):
            # Popped, so each head's rows live only in the copy its pass reads.
            if mechanism == "dense":
                head_outs.append(dense_attention(AttentionInputs(
                    q=qs.pop(0), k=ks.pop(0), v=vs.pop(0), positions=positions,
                    embedding=emb, embedding_mode=mode,
                )).z)
            else:
                head_outs.append(gha_forward(
                    with_values(structure, q=qs.pop(0), k=ks.pop(0), v=vs.pop(0)),
                    emb, mode).z)
        attn = np.concatenate(head_outs, axis=1) @ lp.w_o
        del head_outs  # else alive next to the FFN's temporaries
        attn += lp.b_o
        attn = _dropout(attn, config.attn_dropout, config, layer_idx, 0)
        attn += x  # never into x: the first layer's is the caller's
        x = attn

        f = layer_norm(x, lp.ln2_gain, lp.ln2_shift)
        u = f @ lp.w1
        del f
        u += lp.b1
        np.maximum(u, 0.0, out=u)
        u = _dropout(u, config.ffn_dropout, config, layer_idx, 1)
        u = u @ lp.w2
        u += lp.b2
        u = _dropout(u, config.ffn_dropout, config, layer_idx, 2)
        u += x
        x = u
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
    return np.frombuffer(data, dtype="<f8").reshape(shape)


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
        frequencies = _read_tensor(f) if has_embedding else None
        layers = [{name: _read_tensor(f) for name in _LAYER_FIELDS} for _ in range(config.n_layers)]
        trailing = f.read(1)
        if trailing:
            raise FormatError("trailing bytes after parameter tensors")
    try:  # the constructors check every tensor, and store a copy of it
        embedding = None if frequencies is None else FourierEmbedding(frequencies=frequencies)
        return GhaBlockParams(config=config, embedding=embedding,
                              layers=tuple(LayerParams(**vals) for vals in layers))
    except InvalidInputError as e:
        raise FormatError(str(e)) from None
