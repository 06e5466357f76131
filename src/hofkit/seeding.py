"""Derived random streams.

All randomness in a run flows from one user-supplied seed. Each consumer
(split, init, dropout, shuffling, ...) derives its own independent stream
from ``(seed, purpose-tag)`` so adding a new consumer never perturbs the
draws of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derived_rng(seed: int, tag: str) -> np.random.Generator:
    """Deterministic generator for one purpose, independent across tags."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    tag_int = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag_int])))


def derived_seeds(seed: int, tag: str, n: int) -> list[int]:
    """``n`` seeds for independent sub-runs (e.g. folds), drawn from one tagged stream.

    Unlike ``seed + i``, sub-run i of one seed does not replay a sub-run of
    another seed (barring a 63-bit collision).
    """
    return [int(s) for s in derived_rng(seed, tag).integers(0, 2**63, size=n)]
