"""Named random substreams derived from a single master seed.

Every source of randomness in the package (parameter init, cloud
generation, dropout masks, Fourier frequencies) draws from its own
substream so that results are reproducible and independent of the
order in which components consume entropy.
"""

import numpy as np

from .errors import InvalidInputError
from .geometry import _integer

# Stable stream ids; appending is fine, renumbering breaks reproducibility.
_STREAMS = {
    "params": 0,
    "cloud-gen": 1,
    "dropout": 2,
    "fourier": 3,
    "qkv": 4,
    "features": 5,
    "probe": 6,
}


def substream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Return a Generator for the named substream of ``seed``.

    ``extra`` integers (layer index, tensor role, ...) further split the
    stream deterministically. The seed and each extra key are integers of
    at least 0, and the name one of ``_STREAMS``; anything else raises
    InvalidInputError.
    """
    if not isinstance(name, str) or name not in _STREAMS:
        raise InvalidInputError(f"substream name must be one of {sorted(_STREAMS)}, got {name!r}")
    key = (_STREAMS[name],) + tuple(_integer(e, "substream key", 0) for e in extra)
    return np.random.default_rng(np.random.SeedSequence(entropy=_integer(seed, "seed", 0),
                                                        spawn_key=key))
