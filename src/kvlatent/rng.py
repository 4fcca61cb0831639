"""Seeded randomness for the CLI.

Everything random flows from one 64-bit seed through numpy's Philox, the
Philox4x64-10 counter-based bit generator, keyed directly rather than
routed through SeedSequence. Its key has 128 bits: the seed fills the low
64 and a stream id the high 64, so every (seed, stream) pair names its own
stream. Gaussian draws use numpy's ziggurat standard_normal on a stream.
`gen` keys each tensor's stream by its layer and slot (cli.cmd_gen,
cli._GEN_SLOTS); `eval` draws from stream 0 in a fixed order.
Identical seeds therefore give identical artifacts.
"""

import numpy as np

from .errors import ValidationError

_U64 = (1 << 64) - 1


def check_seed(seed, what: str = "seed") -> int:
    """`seed` itself if it is an integer in [0, 2**64 - 1], the keys Philox
    takes as they are; any other integer would alias one of them."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _U64:
        raise ValidationError(f"{what} must be an integer in [0, 2**64 - 1], got {seed!r}")
    return seed


def make_generator(seed: int, stream: int = 0) -> "np.random.Generator":
    """A generator on the Philox key with `seed` in its low 64 bits and
    `stream` in its high 64."""
    key = check_seed(seed) | check_seed(stream, "stream") << 64
    return np.random.Generator(np.random.Philox(key=key))
