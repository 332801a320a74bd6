"""Deterministic random streams derived from a master seed.

Every randomized routine takes an explicit ``random.Random`` stream.
Independent pieces of work (experiment trials, seeded rebuilds) draw from
child streams derived here from ``(seed, *labels)``, so aggregated results
depend only on the master seed and the label layout.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive", "derive_seed"]


def derive_seed(seed: int, *labels: object) -> int:
    """Hash a master seed and a label path into a 128-bit child seed."""
    tag = "/".join([str(seed)] + [str(x) for x in labels])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def derive(seed: int, *labels: object) -> random.Random:
    """Return a fresh ``random.Random`` seeded from ``(seed, *labels)``."""
    return random.Random(derive_seed(seed, *labels))
