import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hofkit import corpus, embedding
from hofkit.embedding import (
    EmbeddingConfig,
    EmbeddingMatrix,
    load_text,
    load_words,
    save_text,
    train,
)
from hofkit.seeding import derived_rng

from synthgen import clique_margin, cosine, two_clique_corpus


def encode_streams(streams, min_count=1):
    vocab = corpus.build_vocab(streams, min_count=min_count)
    return [corpus.encode(s, vocab) for s in streams], vocab


# -- scalar oracles: one window or pair at a time, independent of the trainer --


def _softplus(x: float) -> float:
    return float(np.logaddexp(0.0, x))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _contrastive(h, w_out, target, negatives):
    """Loss and gradients for one positive target plus sampled noise words.

    Returns (loss, dL/dh, [(word_id, dL/dw_out_row), ...]). Noise draws equal
    to the target are skipped; duplicate draws contribute twice.
    """
    loss = 0.0
    dh = np.zeros_like(h)
    out_grads = []
    x = float(w_out[target] @ h)
    loss += _softplus(-x)
    g = _sigmoid(x) - 1.0  # dL/dx for the positive pair
    dh += g * w_out[target]
    out_grads.append((target, g * h))
    for nid in negatives:
        if nid == target:
            continue
        x = float(w_out[nid] @ h)
        loss += _softplus(x)
        g = _sigmoid(x)
        dh += g * w_out[nid]
        out_grads.append((nid, g * h))
    return loss, dh, out_grads


def cbow_window_loss_grads(w_in, w_out, center, context, negatives):
    """Full CBOW window loss with exact gradients w.r.t. both matrices.

    The hidden vector is the mean of the context rows, so each context row
    receives 1/len(context) of the hidden gradient.
    """
    context = list(context)
    h = w_in[context].mean(axis=0)
    loss, dh, out_grads = _contrastive(h, w_out, center, negatives)
    g_in = np.zeros_like(w_in)
    for cid in context:
        g_in[cid] += dh / len(context)
    g_out = np.zeros_like(w_out)
    for wid, grad in out_grads:
        g_out[wid] += grad
    return loss, g_in, g_out


def skipgram_pair_loss_grads(w_in, w_out, center, context_word, negatives):
    """Skip-gram loss for one (center, context) pair with exact gradients."""
    h = w_in[center]
    loss, dh, out_grads = _contrastive(h, w_out, context_word, negatives)
    g_in = np.zeros_like(w_in)
    g_in[center] += dh
    g_out = np.zeros_like(w_out)
    for wid, grad in out_grads:
        g_out[wid] += grad
    return loss, g_in, g_out


def sentence_windows(length, window):
    """(center, context positions) of every window, context positions in order."""
    for i in range(length):
        lo = max(0, i - window)
        hi = min(length, i + window + 1)
        context = list(range(lo, i)) + list(range(i + 1, hi))
        if context:
            yield i, context


def oracle_examples(ids, window, skipgram):
    """(window index, loss_grads args) of a tweet's examples in training order."""
    for i, context in sentence_windows(len(ids), window):
        if skipgram:
            for p in context:
                yield i, (skipgram_pair_loss_grads, ids[i], ids[p])
        else:
            yield i, (cbow_window_loss_grads, ids[i], [ids[p] for p in context])


def oracle_step(w_in, w_out, ids, window, skipgram, window_lr, negatives):
    """Scalar losses and the tables after one step whose examples all read (w_in, w_out)."""
    new_in, new_out, losses = w_in.copy(), w_out.copy(), []
    for (i, (fn, center, context)), negs in zip(oracle_examples(ids, window, skipgram), negatives):
        loss, g_in, g_out = fn(w_in, w_out, center, context, negs)
        new_in -= window_lr[i] * g_in
        new_out -= window_lr[i] * g_out
        losses.append(loss)
    return losses, new_in, new_out


# -- a frozen copy of the per-tweet trainer the block trainer replaced --


def frozen_noise_table(corpus, vocab_size):
    counts = np.zeros(vocab_size, dtype=np.float64)
    for ex in corpus:
        for wid in ex.ids:
            counts[wid] += 1.0
    weights = counts**0.75
    return np.cumsum(weights)


def frozen_examples(ids, window, skipgram):
    gap = np.abs(np.subtract.outer(np.arange(len(ids)), np.arange(len(ids))))
    band = (gap > 0) & (gap <= window)
    if skipgram:
        center, context = np.nonzero(band)
        return np.eye(len(ids))[center], ids[context], center
    return band / band.sum(axis=1, keepdims=True), ids, np.arange(len(ids))


def frozen_contrastive(h, w_out, out_ids):
    w = w_out[out_ids]
    sign = np.ones(out_ids.shape)
    sign[:, 0] = -1.0
    sign[:, 1:][out_ids[:, 1:] == out_ids[:, :1]] = 0.0
    z = sign * np.einsum("ed,ejd->ej", h, w)
    g = sign * (0.5 + 0.5 * np.tanh(0.5 * z))
    return float(np.logaddexp(0.0, z)[sign != 0.0].sum()), g, np.einsum("ej,ejd->ed", g, w)


def frozen_tweet_step(w_in, w_out, ids, op, out_ids, lr):
    x = w_in[ids]
    loss, g, dh = frozen_contrastive(op @ x, w_out, out_ids)
    rows, slot = np.unique(ids, return_inverse=True)
    w_in[rows] -= ((slot == np.arange(len(rows))[:, None]) @ op.T) @ (lr[:, None] * dh)
    out_rows, out_slot = np.unique(out_ids, return_inverse=True)
    n = len(ids)
    flat = out_slot.reshape(out_ids.shape)[:, :, None] * n + np.arange(n)
    weights = (lr[:, None] * g)[:, :, None] * op[:, None, :]
    m = np.bincount(flat.ravel(), weights.ravel(), len(out_rows) * n)
    w_out[out_rows] -= m.reshape(len(out_rows), n) @ x
    return loss


def frozen_train(corpus, vocab_size, cfg, seed):
    """The trainer before blocks, and the count of noise words equal to their target."""
    init_rng = derived_rng(seed, "embedding-init")
    w_in = init_rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=(vocab_size, cfg.dim))
    w_out = np.zeros((vocab_size, cfg.dim), dtype=np.float64)
    cum = frozen_noise_table(corpus, vocab_size)
    steps_per_epoch = sum(len(ex.ids) for ex in corpus if len(ex.ids) >= 2)
    total_steps = max(cfg.epochs * steps_per_epoch, 1)
    rng = derived_rng(seed, "embedding-train")
    skipgram = cfg.objective == "skipgram"
    losses, step, equal = [], 0, 0
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        epoch_terms = 0
        for ex in corpus:
            if len(ex.ids) < 2:
                continue
            ids = np.asarray(ex.ids)
            op, targets, center = frozen_examples(ids, cfg.window, skipgram)
            lr = cfg.initial_lr * (1.0 - 0.9 * (step + center) / max(total_steps - 1, 1))
            negatives = cum.searchsorted(rng.random(len(op) * cfg.negatives) * cum[-1])
            out_ids = np.column_stack([targets, negatives.reshape(len(op), cfg.negatives)])
            equal += int((out_ids[:, 1:] == out_ids[:, :1]).sum())
            epoch_loss += frozen_tweet_step(w_in, w_out, ids, op, out_ids, lr)
            epoch_terms += len(op)
            step += len(ids)
        losses.append(epoch_loss / max(epoch_terms, 1))
    return EmbeddingMatrix(w_in, w_out, losses), equal


class TestConfig:
    def test_defaults_match_pretraining_recipe(self):
        cfg = EmbeddingConfig()
        assert (cfg.dim, cfg.window, cfg.min_count, cfg.epochs) == (200, 5, 2, 10)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dim=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(objective="glove")

    @pytest.mark.parametrize("lr", [0.0, -0.025, float("nan"), float("inf")])
    def test_rejects_a_learning_rate_that_is_not_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="initial_lr must be positive and finite"):
            EmbeddingConfig(initial_lr=lr)


class TestWindows:
    @pytest.mark.parametrize("length,window", [(1, 5), (3, 2), (8, 3), (5, 10)])
    def test_context_size_formula(self, length, window):
        sizes = embedding._context_band(length, window).sum(axis=1)
        got = {i: int(n) for i, n in enumerate(sizes) if n}
        for i in range(length):
            expected = min(window, i) + min(window, length - 1 - i)
            if expected == 0:
                assert i not in got
            else:
                assert got[i] == expected

    def test_singleton_sentence_has_no_windows(self):
        assert not embedding._context_band(1, 5).any()

    @pytest.mark.parametrize("skipgram", [False, True])
    @pytest.mark.parametrize("length,window", [(2, 5), (3, 2), (8, 3), (5, 10)])
    def test_examples_follow_the_windows(self, length, window, skipgram):
        ids = np.arange(10, 10 + length)  # id p + 10 at position p, so ids and positions differ
        x = derived_rng(length, "window-rows").normal(size=(length, 3))
        op, targets, center = embedding._examples(ids, window, skipgram)
        want = list(oracle_examples(list(ids), window, skipgram))
        assert center.tolist() == [i for i, _ in want]
        if skipgram:
            assert targets.tolist() == [context for _, (_, _, context) in want]
            assert np.array_equal(op @ x, x[center])
        else:
            assert targets.tolist() == [c for _, (_, c, _) in want]
            means = [x[[p - 10 for p in context]].mean(axis=0) for _, (_, _, context) in want]
            np.testing.assert_allclose(op @ x, np.array(means), rtol=0, atol=1e-15)


class TestGradients:
    def _fd(self, lossfn, mat, h=1e-4):
        fd = np.zeros_like(mat)
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                orig = mat[i, j]
                mat[i, j] = orig + h
                lp = lossfn()
                mat[i, j] = orig - h
                lm = lossfn()
                mat[i, j] = orig
                fd[i, j] = (lp - lm) / (2 * h)
        return fd

    def _assert_close(self, analytic, fd):
        denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
        assert np.abs(analytic - fd).max() / denom < 1e-3

    @pytest.mark.parametrize("seed", range(3))
    def test_cbow_window_gradients(self, seed):
        rng = derived_rng(seed, "emb-grad-test")
        w_in = rng.normal(0, 0.5, size=(5, 6))
        w_out = rng.normal(0, 0.5, size=(5, 6))
        center, context, negs = 0, [1, 2, 3], [4, 2, 0]
        loss, g_in, g_out = cbow_window_loss_grads(w_in, w_out, center, context, negs)
        assert np.isfinite(loss)
        fd_in = self._fd(
            lambda: cbow_window_loss_grads(w_in, w_out, center, context, negs)[0], w_in
        )
        fd_out = self._fd(
            lambda: cbow_window_loss_grads(w_in, w_out, center, context, negs)[0], w_out
        )
        self._assert_close(g_in, fd_in)
        self._assert_close(g_out, fd_out)

    @pytest.mark.parametrize("seed", range(3))
    def test_skipgram_pair_gradients(self, seed):
        rng = derived_rng(seed, "sg-grad-test")
        w_in = rng.normal(0, 0.5, size=(5, 6))
        w_out = rng.normal(0, 0.5, size=(5, 6))
        loss, g_in, g_out = skipgram_pair_loss_grads(w_in, w_out, 0, 1, [2, 3, 4])
        fd_in = self._fd(
            lambda: skipgram_pair_loss_grads(w_in, w_out, 0, 1, [2, 3, 4])[0], w_in
        )
        fd_out = self._fd(
            lambda: skipgram_pair_loss_grads(w_in, w_out, 0, 1, [2, 3, 4])[0], w_out
        )
        self._assert_close(g_in, fd_in)
        self._assert_close(g_out, fd_out)

    def test_negative_equal_to_target_is_skipped(self):
        w_in = np.ones((3, 2))
        w_out = np.ones((3, 2))
        l1 = cbow_window_loss_grads(w_in, w_out, 0, [1], [0, 0, 0])[0]
        l2 = cbow_window_loss_grads(w_in, w_out, 0, [1], [])[0]
        assert l1 == l2


class TestTweetStep:
    """The batched step against the sum of the scalar oracle gradients at one snapshot."""

    def _tables(self, seed, v=7, dim=4):
        rng = derived_rng(seed, "tweet-step-tables")
        return rng.normal(0, 0.5, size=(v, dim)), rng.normal(0, 0.5, size=(v, dim))

    @pytest.mark.parametrize("skipgram", [False, True])
    @pytest.mark.parametrize(
        "ids", [[2, 5, 2, 3, 5, 5, 6], [4, 4], [3, 6]], ids=["repeats", "pair-same", "pair"]
    )
    def test_step_is_the_sum_of_oracle_steps(self, ids, skipgram):
        w_in, w_out = self._tables(len(ids) + skipgram)
        window = 2
        op, targets, center = embedding._examples(np.array(ids), window, skipgram)
        window_lr = np.linspace(0.05, 0.04, len(ids))
        rng = derived_rng(len(ids), "tweet-step-negatives")
        negatives = rng.integers(0, 7, size=(len(op), 3))
        negatives[0] = targets[0]  # every noise word of one example is its target
        negatives[-1, :2] = targets[-1]
        negatives[-1, 2] = (targets[-1] + 1) % 7
        losses, want_in, want_out = oracle_step(
            w_in, w_out, ids, window, skipgram, window_lr, negatives
        )
        got_in, got_out = w_in.copy(), w_out.copy()
        out_ids = np.column_stack([targets, negatives])
        (loss,) = embedding._steps(
            got_in, got_out, np.array(ids), [op], out_ids, window_lr[center], 7
        )
        assert abs(loss - sum(losses)) <= 1e-12
        assert np.abs(got_in - want_in).max() <= 1e-12
        assert np.abs(got_out - want_out).max() <= 1e-12

    @pytest.mark.parametrize("skipgram", [False, True])
    def test_block_is_the_oracle_steps_tweet_after_tweet(self, skipgram):
        # the tweets share rows 3 and 6, so each must read the tables its predecessor wrote
        tweets = [[2, 5, 2, 3, 5, 5, 6], [4, 4], [3, 6]]
        w_in, w_out = self._tables(11 + skipgram)
        want_in, want_out = w_in.copy(), w_out.copy()
        rng = derived_rng(3, "block-step-negatives")
        ops, out_ids, lrs, want = [], [], [], []
        for k, ids in enumerate(tweets):
            op, targets, center = embedding._examples(np.array(ids), 2, skipgram)
            window_lr = np.linspace(0.05, 0.04, len(ids)) - 0.001 * k
            negatives = rng.integers(0, 7, size=(len(op), 3))
            negatives[0, :2] = targets[0]  # noise words equal to their target in every tweet
            losses, want_in, want_out = oracle_step(
                want_in, want_out, ids, 2, skipgram, window_lr, negatives
            )
            want.append(sum(losses))
            ops.append(op)
            out_ids.append(np.column_stack([targets, negatives]))
            lrs.append(window_lr[center])
        got = embedding._steps(
            w_in, w_out, np.concatenate(tweets), ops, np.concatenate(out_ids),
            np.concatenate(lrs), 7,
        )
        assert len(got) == len(tweets)
        assert np.abs(np.subtract(got, want)).max() <= 1e-12
        assert np.abs(w_in - want_in).max() <= 1e-12
        assert np.abs(w_out - want_out).max() <= 1e-12

    @pytest.mark.parametrize("objective", ["cbow", "skipgram"])
    def test_train_takes_one_oracle_step_per_tweet(self, objective):
        # three words make noise draws equal to the target certain
        streams = [("a", "b", "a", "c", "b", "b"), ("c",), ("a", "c")]
        encoded, vocab = encode_streams(streams)
        cfg = EmbeddingConfig(dim=4, window=2, epochs=1, negatives=3, objective=objective)
        w_in = derived_rng(5, "embedding-init").uniform(-0.125, 0.125, size=(len(vocab), 4))
        w_out = np.zeros_like(w_in)
        cum = embedding._noise_table(encoded, len(vocab))
        draws = derived_rng(5, "embedding-train")
        tweets = [ex.ids for ex in encoded if len(ex.ids) >= 2]  # a one-token tweet has no window
        total = sum(len(ids) for ids in tweets)
        step, all_losses, equal_draws = 0, [], 0
        for ids in tweets:
            window_lr = 0.025 * (1.0 - 0.9 * (step + np.arange(len(ids))) / (total - 1))
            negatives = []
            for _, (_, center, context) in oracle_examples(list(ids), 2, objective == "skipgram"):
                negatives.append(cum.searchsorted(draws.random(3) * cum[-1]))
                target = context if objective == "skipgram" else center
                equal_draws += int((negatives[-1] == target).sum())
            losses, w_in, w_out = oracle_step(
                w_in, w_out, list(ids), 2, objective == "skipgram", window_lr, negatives
            )
            all_losses += losses
            step += len(ids)
        assert equal_draws > 0
        m = train(encoded, len(vocab), cfg, seed=5)
        assert np.abs(m.w_in - w_in).max() <= 1e-12
        assert np.abs(m.w_out - w_out).max() <= 1e-12
        assert m.epoch_losses[0] == pytest.approx(np.mean(all_losses), rel=0, abs=1e-12)

    def test_one_token_tweets_are_skipped(self):
        encoded, vocab = encode_streams([("a",), ("b",), ("a",)])
        m = train(encoded, len(vocab), EmbeddingConfig(dim=4, epochs=2), seed=3)
        init = derived_rng(3, "embedding-init").uniform(-0.125, 0.125, size=(len(vocab), 4))
        assert np.array_equal(m.w_in, init)
        assert not m.w_out.any()
        assert m.epoch_losses == [0.0, 0.0]


class TestBlocks:
    """The block trainer against the frozen per-tweet trainer, byte for byte."""

    def _corpus(self):
        # four words make repeated ids and noise words equal to their target certain
        rng = derived_rng(0, "block-corpus")
        words = ["a", "b", "c", "d"]
        streams = [
            tuple(words[i] for i in rng.integers(0, 4, size=rng.integers(1, 13)))
            for _ in range(40)
        ]
        streams[:3] = [("a",), ("b", "b"), ("c",)]  # one-token tweets have no window
        return encode_streams(streams)

    @pytest.mark.parametrize("block", [1, 37, 10**9])  # 10**9: the corpus is one block
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("objective", ["cbow", "skipgram"])
    def test_bitwise_equal_to_the_per_tweet_trainer(self, monkeypatch, objective, epochs, block):
        encoded, vocab = self._corpus()
        assert sum(len(ex.ids) == 1 for ex in encoded) >= 2
        cfg = EmbeddingConfig(dim=6, window=2, epochs=epochs, negatives=4, objective=objective)
        want, equal = frozen_train(encoded, len(vocab), cfg, seed=9)
        assert equal > 0
        monkeypatch.setattr(embedding, "BLOCK_EXAMPLES", block)
        got = train(encoded, len(vocab), cfg, seed=9)
        assert got.w_in.tobytes() == want.w_in.tobytes()
        assert got.w_out.tobytes() == want.w_out.tobytes()
        assert got.epoch_losses == want.epoch_losses

    def test_noise_table_counts_as_the_loop_did(self):
        encoded, vocab = self._corpus()
        got = embedding._noise_table(encoded, len(vocab) + 2)  # two words the corpus lacks
        assert got.tobytes() == frozen_noise_table(encoded, len(vocab) + 2).tobytes()

    @pytest.mark.parametrize("objective", ["cbow", "skipgram"])
    def test_peak_memory_stays_bounded_as_the_corpus_grows(self, objective):
        # the bookkeeping of one block is alive at a time; a whole epoch's
        # (a block as large as the corpus) needs about 24 MiB for CBOW here
        words = [f"w{i}" for i in range(150)]
        rng = derived_rng(1, "memory-corpus")
        streams = [
            tuple(words[i] for i in rng.integers(0, 150, size=rng.integers(10, 41)))
            for _ in range(2000)
        ]
        cfg = EmbeddingConfig(dim=16, window=3, epochs=1, objective=objective)
        for n in (200, 2000):
            encoded, vocab = encode_streams(streams[:n])
            train(encoded[:5], len(vocab), cfg, seed=1)  # first-call imports and caches
            tracemalloc.start()
            try:
                train(encoded, len(vocab), cfg, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tables = 2 * len(vocab) * cfg.dim * 8
            assert peak - tables < 4 * 2**20, (n, peak - tables)


_TRAIN_AND_HASH = """
import hashlib
from hofkit import corpus
from hofkit.embedding import EmbeddingConfig, train
from synthgen import two_clique_corpus
streams, _ = two_clique_corpus(300, seed=4)
vocab = corpus.build_vocab(streams, 1)
encoded = [corpus.encode(s, vocab) for s in streams]
for objective in ("cbow", "skipgram"):
    m = train(encoded, len(vocab), EmbeddingConfig(dim=48, window=3, epochs=2, objective=objective), seed=8)
    print(hashlib.sha256(m.w_in.tobytes() + m.w_out.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_same_seed_same_vectors_at_blas_threads(threads):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    runs = [
        subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_HASH], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert len(runs[0].split()) == 2
    assert runs[0] == runs[1]


class TestTrain:
    def test_degenerate_single_word_corpus(self):
        streams = [("w", "w", "w")]
        encoded, vocab = encode_streams(streams)
        cfg = EmbeddingConfig(dim=4, window=2, epochs=2)
        m = train(encoded, len(vocab), cfg, seed=0)
        assert np.isfinite(m.w_in).all() and np.isfinite(m.w_out).all()

    def test_deterministic_under_seed(self):
        streams, _ = two_clique_corpus(100, seed=3)
        encoded, vocab = encode_streams(streams)
        cfg = EmbeddingConfig(dim=8, window=2, epochs=2)
        a = train(encoded, len(vocab), cfg, seed=17)
        b = train(encoded, len(vocab), cfg, seed=17)
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.w_out, b.w_out)
        assert a.epoch_losses == b.epoch_losses

    def test_loss_decreases_with_enough_windows(self):
        streams, _ = two_clique_corpus(200, seed=5)  # well over 100 windows
        encoded, vocab = encode_streams(streams)
        cfg = EmbeddingConfig(dim=8, window=2, epochs=10)
        m = train(encoded, len(vocab), cfg, seed=1)
        assert m.epoch_losses[-1] < m.epoch_losses[0]

    def test_two_clique_separation_small(self):
        streams, cliques = two_clique_corpus(800, seed=7)
        encoded, vocab = encode_streams(streams, min_count=2)
        cfg = EmbeddingConfig(dim=16, window=2, epochs=10)
        m = train(encoded, len(vocab), cfg, seed=11)
        assert clique_margin(m, vocab, cliques) >= 0.2

    def test_skipgram_objective_trains(self):
        streams, cliques = two_clique_corpus(400, seed=9)
        encoded, vocab = encode_streams(streams)
        cfg = EmbeddingConfig(dim=8, window=2, epochs=5, objective="skipgram")
        m = train(encoded, len(vocab), cfg, seed=2)
        assert m.epoch_losses[-1] < m.epoch_losses[0]
        assert clique_margin(m, vocab, cliques) > 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train([], 5, EmbeddingConfig(dim=4), seed=0)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_antipodal(self):
        v = np.array([1.0, -2.0])
        assert cosine(v, -v) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.ones(3))


class TestTextFormat:
    def test_roundtrip_within_tolerance(self, tmp_path):
        streams, _ = two_clique_corpus(50, seed=1)
        encoded, vocab = encode_streams(streams)
        m = train(encoded, len(vocab), EmbeddingConfig(dim=6, window=2, epochs=1), 3)
        p = tmp_path / "vec.txt"
        save_text(m, vocab, p)
        loaded, vocab2 = load_text(p)
        assert vocab2.words == vocab.words
        assert np.abs(loaded.w_in - m.w_in).max() <= 1e-6

    def test_zero_matrix(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 3\nxxpad 0 0 0\nxxunk 0 0 0\n", encoding="utf-8")
        m, vocab = load_text(p)
        assert m.w_in.shape == (2, 3)
        assert not m.w_in.any()

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("5 2\nxxpad 0 0\nxxunk 0 0\na 1 2\nb 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="declares 5 rows but file has 4"):
            load_text(p)

    def test_row_count_excess(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 2\nxxpad 0 0\nxxunk 0 0\na 1 2\nb 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="declares 2 rows but file has 4"):
            load_text(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_text(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("1 3\nxxpad 0 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_text(p)

    def test_foreign_file_gets_reserved_rows(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 2\nhello 1 2\nworld 3 4\n", encoding="utf-8")
        m, vocab = load_text(p)
        assert vocab.words[:2] == ["xxpad", "xxunk"]
        assert m.w_in.shape == (4, 2)
        assert not m.w_in[:2].any()
        assert m.w_in[2].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "text",
        ["2 2\nxxpad 0 0\nxxunk 0 0\n", "2 2\nhello 1 2\n#tag 3 4\n", "2 2\nxxunk 1 2\na 3 4\n"],
    )
    def test_load_words_gives_the_words_of_load_text(self, tmp_path, text):
        p = tmp_path / "vec.txt"
        p.write_text(text, encoding="utf-8")
        assert load_words(p).words == load_text(p)[1].words

    def test_hash_words_are_not_comments(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 2\n#tag 1 2\n# 3 4\n", encoding="utf-8")
        m, vocab = load_text(p)
        assert vocab.words[2:] == ["#tag", "#"]
        assert m.w_in[2:].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_load_words_keeps_the_checks(self, tmp_path):
        p = tmp_path / "vec.txt"
        for text, needle in [
            ("not a header\n", "header"),
            ("5 2\nxxpad 0 0\n", "declares 5 rows but file has 1"),
            ("1 3\nxxpad 0 0\n", "expected 4 columns, got 3, line 2"),
            ("4 2\nxxpad 0 0\nxxunk 0 0\nkya 1 2\nkya 3 4\n", "'kya' repeats line 4, line 5"),
            ("2 2\nxxpad 0 0\nkya 1 2\n", "reserved word 'xxpad' out of place, line 2"),
            ("1 2\nxxpad 0 0\n", "reserved word 'xxpad' out of place, line 2"),
            ("2 2\nkya 1 2\nxxunk 0 0\n", "reserved word 'xxunk' out of place, line 3"),
        ]:
            p.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=needle):
                load_words(p)

    @pytest.mark.parametrize("good_rows", [1, 2000])  # 2000 rows put the byte past a read chunk
    @pytest.mark.parametrize("reader", [load_words, load_text])
    def test_invalid_utf8_reports_line(self, tmp_path, reader, good_rows):
        p = tmp_path / "vec.txt"
        rows = "".join(f"w{i} 0 1\n" for i in range(good_rows))
        p.write_bytes(f"{good_rows + 1} 2\n{rows}".encode() + b"w\xff 1 2\n")
        with pytest.raises(ValueError, match=rf"byte 0xff is not UTF-8 .*, line {good_rows + 2}$"):
            reader(p)

    @pytest.mark.parametrize(
        "head, needle",
        [
            ("60 2\nw0 0.1\n", "expected 3 columns, got 2, line 2"),
            ("60 2\nw0 0 1\nw\x1f 0 1\n", "control character U[+]001F, line 3"),
            ("60\nw0 0 1\n", "malformed header"),
            ("60 2\nw0 0 1\nw1 0 1\nw0 0 1\n", "word 'w0' repeats line 2, line 4"),
            ("60 2\nw0 0 1\nxxpad 0 1\n", "reserved word 'xxpad' out of place, line 3"),
        ],
        ids=["columns", "control", "header", "repeated", "reserved"],
    )
    @pytest.mark.parametrize("reader", [load_words, load_text])
    def test_a_defect_above_an_invalid_byte_is_reported_first(
        self, tmp_path, reader, head, needle
    ):
        # the byte lies in the first chunk the reader decodes, so the decoder
        # meets it before any row above it is checked
        p = tmp_path / "vec.txt"
        rows = "".join(f"w{i} 0 1\n" for i in range(head.count("\n"), 50))
        p.write_bytes((head + rows).encode() + b"w\xff 1 2\n")
        assert p.read_bytes().count(b"\n", 0, p.read_bytes().index(b"\xff")) == 50
        with pytest.raises(ValueError, match=f"^{needle}"):
            reader(p)

    @pytest.mark.parametrize("tail", [b"", b"w\xff 1 2\n"], ids=["valid", "invalid-byte-below"])
    @pytest.mark.parametrize("rows_below", [47, 3000])  # 3000 rows put the end past a read chunk
    def test_a_bad_value_is_reported_with_its_line(self, tmp_path, tail, rows_below):
        # np.loadtxt alone names the value's row among those it parsed (row 1)
        p = tmp_path / "vec.txt"
        rows = "".join(f"w{i} 0 1\n" for i in range(2, 2 + rows_below))
        declared = 2 + rows_below + bool(tail)
        p.write_bytes(f"{declared} 2\nw0 0 1\nw1 zero 1\n{rows}".encode() + tail)
        with pytest.raises(ValueError, match=r"^could not convert string 'zero' .*, line 3$"):
            load_text(p)

    def test_load_words_ignores_the_values(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("2 2\nxxpad 0 0\nxxunk zero 0\n", encoding="utf-8")
        assert load_words(p).words == ["xxpad", "xxunk"]
        with pytest.raises(ValueError, match="zero"):
            load_text(p)

    def test_save_text_format_is_eight_decimals(self, tmp_path):
        vocab = corpus.build_vocab([["a"]], 1)
        w_in = np.array([[0.0, -0.0, 1.5], [1e-9, -2.5e-9, 123.456789125], [np.nan, np.inf, -1.0]])
        p = tmp_path / "vec.txt"
        save_text(EmbeddingMatrix(w_in), vocab, p)
        want = "".join(
            f"{w} " + " ".join(f"{x:.8f}" for x in row) + "\n" for w, row in zip(vocab.words, w_in)
        )
        assert p.read_text(encoding="utf-8") == "3 3\n" + want
