"""Synthetic tweet generators shared by the integration and acceptance tests.

The planted-trigram task: positive tweets contain at least one of a fixed set
of trigram patterns as a contiguous run; negative tweets contain the same
pattern tokens scattered non-contiguously, so bag-of-words marginals match
and only token order separates the classes.
"""

import itertools

import numpy as np

from hofkit import corpus
from hofkit.seeding import derived_rng

VOCAB_SIZE = 500
N_PATTERNS = 20
PATTERN_POOL = 60  # patterns draw their tokens from the first 60 words


def make_patterns(rng, n_patterns=N_PATTERNS, pool=PATTERN_POOL):
    words = [f"w{i:03d}" for i in range(pool)]
    patterns = set()
    while len(patterns) < n_patterns:
        picks = rng.choice(pool, size=3, replace=False)
        patterns.add(tuple(words[int(i)] for i in picks))
    return sorted(patterns)


def _contains_pattern(tokens, patterns):
    trigrams = set(zip(tokens, tokens[1:], tokens[2:]))
    return any(p in trigrams for p in patterns)


def make_planted_trigram_dataset(
    n_examples=2000, vocab_size=VOCAB_SIZE, seed=13, min_len=8, max_len=16
):
    """Balanced planted-trigram corpus; returns (Dataset, patterns)."""
    rng = derived_rng(seed, "planted-trigrams")
    words = [f"w{i:03d}" for i in range(vocab_size)]
    patterns = make_patterns(rng)
    examples = []
    for idx in range(n_examples):
        positive = idx % 2 == 0
        pattern = list(patterns[int(rng.integers(len(patterns)))])
        while True:
            length = int(rng.integers(min_len, max_len + 1))
            tokens = [words[int(i)] for i in rng.integers(0, vocab_size, size=length)]
            if positive:
                pos = int(rng.integers(0, length - 2))
                tokens[pos : pos + 3] = pattern
                break
            # scatter the same three tokens without letting them run together
            slots = sorted(rng.choice(length, size=3, replace=False))
            for slot, tok in zip(slots, pattern):
                tokens[slot] = tok
            if not _contains_pattern(tokens, patterns):
                break
        examples.append(
            corpus.Example(f"t{idx:05d}", tuple(tokens), 1 if positive else 0)
        )
    return corpus.Dataset(examples), patterns


def inject_noise(ds, flip_fraction=0.10, substitute_fraction=0.20, seed=29):
    """Label flips plus random token substitutions, applied example-wise."""
    rng = derived_rng(seed, "noise")
    vocab_words = [f"w{i:03d}" for i in range(VOCAB_SIZE)]
    noisy = []
    for ex in ds:
        tokens = list(ex.tokens)
        for i in range(len(tokens)):
            if rng.random() < substitute_fraction:
                tokens[i] = vocab_words[int(rng.integers(VOCAB_SIZE))]
        label = ex.label
        if rng.random() < flip_fraction:
            label = 1 - label
        noisy.append(corpus.Example(ex.tweet_id, tuple(tokens), label))
    return corpus.Dataset(noisy)


def two_clique_corpus(n_sentences=5000, seed=7):
    """Sentences drawn from one of two disjoint 3-word co-occurrence groups."""
    rng = derived_rng(seed, "two-clique")
    cliques = (("aaa", "bbb", "ccc"), ("xxx", "yyy", "zzz"))
    streams = []
    for _ in range(n_sentences):
        group = cliques[int(rng.integers(2))]
        length = int(rng.integers(4, 7))
        streams.append(tuple(group[int(i)] for i in rng.integers(0, 3, size=length)))
    return streams, cliques


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; rejects zero vectors."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine is undefined for zero vectors")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def clique_margin(matrix, vocab, cliques):
    """Mean intra-clique cosine minus mean inter-clique cosine."""

    def mean_cos(pairs):
        sims = [
            cosine(matrix.w_in[vocab.word_to_id[a]], matrix.w_in[vocab.word_to_id[b]])
            for a, b in pairs
        ]
        return sum(sims) / len(sims)

    intra = [p for group in cliques for p in itertools.combinations(group, 2)]
    inter = [(a, b) for a in cliques[0] for b in cliques[1]]
    return mean_cos(intra) - mean_cos(inter)
