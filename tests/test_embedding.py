import numpy as np
import pytest

from hofkit import corpus, embedding
from hofkit.embedding import (
    EmbeddingConfig,
    EmbeddingMatrix,
    cbow_window_loss_grads,
    cosine,
    load_text,
    load_words,
    nearest,
    save_text,
    skipgram_pair_loss_grads,
    train,
)
from hofkit.seeding import derived_rng

from synthgen import clique_margin, two_clique_corpus


def encode_streams(streams, min_count=1):
    vocab = corpus.build_vocab(streams, min_count=min_count)
    return [corpus.encode(s, vocab) for s in streams], vocab


class TestConfig:
    def test_defaults_match_pretraining_recipe(self):
        cfg = EmbeddingConfig()
        assert (cfg.dim, cfg.window, cfg.min_count, cfg.epochs) == (200, 5, 2, 10)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dim=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(objective="glove")


class TestWindows:
    @pytest.mark.parametrize("length,window", [(1, 5), (3, 2), (8, 3), (5, 10)])
    def test_context_size_formula(self, length, window):
        got = {i: len(ctx) for i, ctx in embedding._sentence_windows(length, window)}
        for i in range(length):
            expected = min(window, i) + min(window, length - 1 - i)
            if expected == 0:
                assert i not in got
            else:
                assert got[i] == expected

    def test_singleton_sentence_has_no_windows(self):
        assert list(embedding._sentence_windows(1, 5)) == []


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


class TestNearest:
    def _fixture(self):
        vocab = corpus.build_vocab([["a", "b", "c"]], min_count=1)
        w_in = np.array(
            [
                [1.0, 0.0],  # xxpad
                [0.0, 1.0],  # xxunk
                [1.0, 0.1],  # a
                [1.0, 0.2],  # b
                [-1.0, 0.0],  # c
            ]
        )
        return vocab, EmbeddingMatrix(w_in)

    def test_excludes_query_and_ranks(self):
        vocab, m = self._fixture()
        result = nearest("a", vocab, m, 2)
        # cos(a,b) = 1.02/sqrt(1.01*1.04) ~ 0.99523 beats cos(a,xxpad) ~ 0.99504
        assert [w for w, _ in result] == ["b", "xxpad"]
        assert result[0][1] > result[1][1]
        assert "a" not in [w for w, _ in result]

    def test_k_zero_errors(self):
        vocab, m = self._fixture()
        with pytest.raises(ValueError):
            nearest("a", vocab, m, 0)

    def test_oov_query_errors(self):
        vocab, m = self._fixture()
        with pytest.raises(ValueError):
            nearest("missing", vocab, m, 1)

    def test_unk_query_is_valid(self):
        vocab, m = self._fixture()
        assert len(nearest("xxunk", vocab, m, 3)) == 3

    def test_tie_breaks_by_id(self):
        vocab = corpus.build_vocab([["a", "b"]], 1)
        w_in = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        m = EmbeddingMatrix(w_in)
        result = nearest("b", vocab, m, 2)
        assert [w for w, _ in result] == ["xxunk", "a"]


    def test_zero_rows_of_a_file_without_reserved_words_score_zero(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3 2\na 1.0 0.0\nb 1.0 0.1\nc -1.0 0.0\n", encoding="utf-8")
        m, vocab = load_text(path)
        assert vocab.words[:2] == ["xxpad", "xxunk"] and not m.w_in[:2].any()
        result = nearest("a", vocab, m, 4)
        assert [w for w, _ in result] == ["b", "xxpad", "xxunk", "c"]
        assert result[0][1] == pytest.approx(1.0 / np.sqrt(1.01))
        assert [sim for _, sim in result[1:]] == [0.0, 0.0, -1.0]


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
        ]:
            p.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=needle):
                load_words(p)

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
