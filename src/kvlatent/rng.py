"""Seeded randomness for the CLI.

Everything random flows from one 64-bit seed through a Philox4x32-10
counter-based bit generator (numpy's Philox, keyed directly with the seed
rather than routed through SeedSequence). Gaussian draws use numpy's
ziggurat standard_normal on that stream. Identical seeds therefore give
identical artifacts; commands draw in a documented fixed order so outputs
stay byte-reproducible.
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


def make_generator(seed: int) -> "np.random.Generator":
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))
