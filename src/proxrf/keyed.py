"""Keyed random draws: every draw is a pure function of its key.

A key is a domain word, which names the draw's use, followed by integer
words; arrays among them broadcast together.  Its hash chains splitmix64
(Steele, Lea and Flood, OOPSLA 2014) over the words, h = splitmix64(h ^
word) from h = 0, in wrapping uint64 array arithmetic.  This is a
counter-based generator in the sense of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC 2011): no draw depends on the order or
the number of the draws made before it.
"""

import numpy as np

# domain words, one per use
HEADING, BOOTSTRAP, FEATURES, FOLD = range(4)


def splitmix64(state):
    """splitmix64's output once its state has stepped from ``state``, as
    a uint64 array of at least one dimension."""
    z = np.array(state, dtype=np.uint64, ndmin=1)
    z += 0x9E3779B97F4A7C15
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def key_hash(domain: int, *words):
    """uint64 hash of the key (domain, *words).  A Python int word counts
    modulo 2**64, and an integer array's values wrap to uint64."""
    h = splitmix64(domain)
    for word in words:
        if isinstance(word, int):
            word %= 2**64
        h = splitmix64(h ^ np.asarray(word).astype(np.uint64))
    return h


def uniform(domain: int, *words) -> np.ndarray:
    """The key's double in [0, 1): the top 53 bits of its hash."""
    return (key_hash(domain, *words) >> 11) * 2.0**-53
