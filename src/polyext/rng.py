"""Deterministic random streams derived from a master seed, and batch draws on them.

Every randomized routine takes an explicit ``random.Random`` stream.
Independent pieces of work (experiment trials, seeded rebuilds) draw from
child streams derived here from ``(seed, *labels)``, so aggregated results
depend only on the master seed and the label layout.

Batch draws live here too: :func:`below`, :func:`shuffle` and :func:`sample` inline
``Random._randbelow_with_getrandbits`` (``getrandbits(b.bit_length())`` until below b),
so they read the stream exactly as the ``Random`` call does, with no Python call per draw.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence
from math import ceil, log

__all__ = ["below", "derive", "derive_seed", "sample", "shuffle"]


def derive_seed(seed: int, *labels: object) -> int:
    """Hash a master seed and a label path into a 128-bit child seed."""
    tag = "/".join([str(seed)] + [str(x) for x in labels])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def derive(seed: int, *labels: object) -> random.Random:
    """Return a fresh ``random.Random`` seeded from ``(seed, *labels)``."""
    return random.Random(derive_seed(seed, *labels))


def below(stream: random.Random, bounds: Sequence[int]) -> list[int]:
    """``[stream.randrange(b) for b in bounds]``; a bound below 1 raises before any draw."""
    if bounds and min(bounds) < 1:
        raise ValueError("empty range for randrange()")
    getrandbits, out = stream.getrandbits, []
    for b in bounds:
        k = b.bit_length()
        r = getrandbits(k)
        while r >= b:
            r = getrandbits(k)
        out.append(r)
    return out


def shuffle(stream: random.Random, x: list) -> None:
    """``stream.shuffle(x)``: shuffle the list ``x`` in place."""
    getrandbits = stream.getrandbits
    for i in reversed(range(1, len(x))):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def sample(stream: random.Random, population: Sequence, k: int) -> list:
    """``stream.sample(population, k)``, its pool branch (n <= random.py's setsize) inlined;
    the set branch, a k outside [0, n] and a non-sequence population go to the stream."""
    n = len(population) if isinstance(population, Sequence) else -1
    setsize = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
    if not 0 <= k <= n or n > setsize:
        return stream.sample(population, k)
    getrandbits, pool, result = stream.getrandbits, list(population), [None] * k
    for i in range(k):
        m = n - i
        b = m.bit_length()
        j = getrandbits(b)
        while j >= m:
            j = getrandbits(b)
        result[i] = pool[j]
        pool[j] = pool[m - 1]
    return result
