import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofkit import cli, cnn, corpus, embedding
from hofkit.seeding import derived_rng, derived_seeds

DIVERGED = re.compile(r"error: training diverged: non-finite loss at epoch [1-9][0-9]*\n")


def write_tsv(path, rows, header="text_id\ttext\ttask_1"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def make_labelled_tsv(path, n=24, seed=0):
    rng = derived_rng(seed, "cli-data")
    words = ["accha", "bura", "theek", "galat", "sahi", "kharab"]
    rows = []
    for i in range(n):
        label = "HOF" if i % 2 == 0 else "NOT"
        signal = "bura bura" if label == "HOF" else "accha accha"
        extra = " ".join(words[int(x)] for x in rng.integers(0, len(words), size=3))
        rows.append(f"t{i}\t{signal} {extra}\t{label}")
    write_tsv(path, rows)
    return path


def run_pipeline(tmp_path, seed=11, epochs=2):
    """preprocess -> embed-train -> train; returns the key paths."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    data = make_labelled_tsv(tmp_path / "train.tsv")
    tokens = tmp_path / "corpus.txt"
    assert cli.main(["preprocess", str(data), str(tokens)]) == 0
    vectors = tmp_path / "vectors.txt"
    rc = cli.main(
        [
            "embed-train", str(tokens), "--out", str(vectors),
            "--dim", "8", "--window", "2", "--min-count", "1",
            "--epochs", "2", "--seed", str(seed),
        ]
    )
    assert rc == 0
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "model": {"filter_counts": [2, 2, 4], "dense_units": 8, "m_max": 16},
                "dropout": {"input": 0.0, "bank3": 0.0, "bank4": 0.0, "bank5": 0.0, "dense": 0.0},
                "train": {"epochs": epochs, "batch_size": 8, "lr": 0.005, "patience": epochs},
            }
        ),
        encoding="utf-8",
    )
    ckpt = tmp_path / "model.ckpt"
    history = tmp_path / "history.tsv"
    rc = cli.main(
        [
            "train", "--config", str(config), "--data", str(data),
            "--embeddings", str(vectors), "--out", str(ckpt),
            "--history", str(history), "--seed", str(seed),
        ]
    )
    assert rc == 0
    return data, vectors, config, ckpt, history


class TestPreprocessCmd:
    def test_writes_one_line_per_row(self, tmp_path, capsys):
        data = tmp_path / "in.tsv"
        write_tsv(data, ["t1\t@a hello\tHOF", "t2\tkya baat\tNOT", "t3\tok\tHOF"])
        out = tmp_path / "out.txt"
        assert cli.main(["preprocess", str(data), str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == ["xxatp hello", "kya baat", "ok"]

    def test_malformed_row_exits_nonzero_with_line(self, tmp_path, capsys):
        data = tmp_path / "in.tsv"
        write_tsv(data, ["t1\tok\tHOF", "broken row"])
        rc = cli.main(["preprocess", str(data), str(tmp_path / "out.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 3" in err
        assert err.count("\n") == 1  # single line

    def test_surrogate_char_ref_does_not_abort_file(self, tmp_path, capsys):
        data = tmp_path / "in.tsv"
        write_tsv(data, ["t1\tbad &#55296; ref\tHOF", "t2\tkya baat\tNOT"])
        out = tmp_path / "out.txt"
        assert cli.main(["preprocess", str(data), str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1] == "kya baat"
        assert "error:" not in capsys.readouterr().err

    def test_empty_text_gives_empty_line(self, tmp_path):
        data = tmp_path / "in.tsv"
        write_tsv(data, ["t1\t\tHOF"])
        out = tmp_path / "out.txt"
        assert cli.main(["preprocess", str(data), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "\n"


class TestEmbedTrainCmd:
    def test_header_echoes_dim(self, tmp_path):
        tokens = tmp_path / "c.txt"
        tokens.write_text("a b a b\nb a b a\n", encoding="utf-8")
        out = tmp_path / "v.txt"
        rc = cli.main(
            ["embed-train", str(tokens), "--out", str(out), "--dim", "8",
             "--min-count", "1", "--epochs", "1", "--seed", "1"]
        )
        assert rc == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.split()[1] == "8"
        assert int(header.split()[0]) == 4  # xxpad xxunk a b

    def test_missing_corpus_exits_with_file_error(self, tmp_path, capsys):
        rc = cli.main(
            ["embed-train", str(tmp_path / "nope.txt"), "--out",
             str(tmp_path / "v.txt"), "--seed", "1"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_required(self, tmp_path, capsys):
        tokens = tmp_path / "c.txt"
        tokens.write_text("a b\n", encoding="utf-8")
        rc = cli.main(["embed-train", str(tokens), "--out", str(tmp_path / "v.txt")])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_vocab_dump(self, tmp_path):
        tokens = tmp_path / "c.txt"
        tokens.write_text("a b a\n", encoding="utf-8")
        vocab_out = tmp_path / "vocab.tsv"
        cli.main(
            ["embed-train", str(tokens), "--out", str(tmp_path / "v.txt"),
             "--dim", "4", "--min-count", "1", "--epochs", "1", "--seed", "1",
             "--vocab-out", str(vocab_out)]
        )
        assert vocab_out.read_text(encoding="utf-8").splitlines()[2] == "a\t2"


class TestTrainCmd:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        assert (a[4]).read_bytes() == (b[4]).read_bytes()  # history
        assert (a[3]).read_bytes() == (b[3]).read_bytes()  # checkpoint

    def test_history_format(self, tmp_path):
        _, _, _, _, history = run_pipeline(tmp_path, epochs=3)
        lines = history.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_macro_f1"
        assert len(lines) == 4
        first = lines[1].split("\t")
        assert first[0] == "1"
        float(first[1]), float(first[2])

    def test_dimension_mismatch_errors(self, tmp_path, capsys):
        data, vectors, config, ckpt, history = run_pipeline(tmp_path)
        cfg = json.loads(config.read_text(encoding="utf-8"))
        cfg["model"]["embed_dim"] = 200
        config.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(
            ["train", "--config", str(config), "--data", str(data),
             "--embeddings", str(vectors), "--out", str(ckpt), "--seed", "1"]
        )
        assert rc == 1
        assert "does not match" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        data, vectors, config, ckpt, history = run_pipeline(tmp_path)
        rc = cli.main(
            ["train", "--config", str(config), "--data", str(data),
             "--embeddings", str(vectors), "--out", str(ckpt),
             "--history", str(history), "--seed", "3", "--epochs", "1"]
        )
        assert rc == 0
        assert len(history.read_text(encoding="utf-8").splitlines()) == 2

    def test_patience_shortens_history(self, tmp_path):
        data, vectors, config, ckpt, history = run_pipeline(tmp_path)
        rc = cli.main(
            ["train", "--config", str(config), "--data", str(data),
             "--embeddings", str(vectors), "--out", str(ckpt),
             "--history", str(history), "--seed", "5",
             "--epochs", "50", "--patience", "0"]
        )
        assert rc == 0
        assert len(history.read_text(encoding="utf-8").splitlines()) == 2  # header + 1

    def test_float_filter_counts_accepted(self, tmp_path):
        data, vectors, config, ckpt, history = run_pipeline(tmp_path)
        cfg = json.loads(config.read_text(encoding="utf-8"))
        cfg["model"]["filter_counts"] = [2.0, 2.0, 4.0]
        config.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli.main(
            ["train", "--config", str(config), "--data", str(data),
             "--embeddings", str(vectors), "--out", str(ckpt), "--seed", "1"]
        )
        assert rc == 0
        assert cnn.load_checkpoint(ckpt).cfg.filter_counts == (2, 2, 4)

    def test_diverging_run_is_one_error_line(self, tmp_path, capsys):
        data, vectors, config, ckpt, history = run_pipeline(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy overflow warning fails the test
            rc = cli.main(
                ["train", "--config", str(config), "--data", str(data),
                 "--embeddings", str(vectors), "--out", str(ckpt), "--seed", "1",
                 "--lr", "1e30"]
            )
        assert rc == 1
        assert DIVERGED.fullmatch(capsys.readouterr().err)

    @staticmethod
    def _train_with_first_value(tmp_path, capsys, value):
        """Exit code and stderr of train after the first value of "theek" becomes ``value``."""
        data, vectors, config, ckpt, history = run_pipeline(tmp_path)
        lines = vectors.read_text(encoding="utf-8").split("\n")
        row = next(i for i, line in enumerate(lines) if line.startswith("theek "))
        fields = lines[row].split(" ")
        lines[row] = " ".join([fields[0], value] + fields[2:])
        vectors.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy overflow warning fails the test
            rc = cli.main(
                ["train", "--config", str(config), "--data", str(data),
                 "--embeddings", str(vectors), "--out", str(ckpt), "--seed", "1"]
            )
        return rc, capsys.readouterr().err

    def test_vector_value_beyond_float32_is_one_error_line(self, tmp_path, capsys):
        rc, err = self._train_with_first_value(tmp_path, capsys, "1e300")
        assert rc == 1
        assert err == "error: embedding values must be finite and fit in float32\n"

    def test_huge_vector_value_trains_quietly(self, tmp_path, capsys):
        # some logits fall below -709, where exp(-logit) overflows float64
        rc, err = self._train_with_first_value(tmp_path, capsys, "-1e30")
        assert rc == 0
        assert err == ""

    def test_unlabelled_data_rejected(self, tmp_path, capsys):
        data = tmp_path / "u.tsv"
        write_tsv(data, ["t1\tkuch"], header="text_id\ttext")
        rc = cli.main(
            ["train", "--data", str(data), "--embeddings", "x", "--out", "y",
             "--seed", "1"]
        )
        assert rc == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "config, needle",
        [
            ([], "top level must be a JSON object"),
            ({"model": 5}, "section 'model' must be a JSON object"),
            ({"train": {"epochs": None}}, "train.epochs must be a number, got null"),
            ({"model": {"filter_counts": 5}}, "model.filter_counts must be a list of numbers"),
        ],
        ids=["top-level-list", "section-not-object", "null-number", "filter-counts-not-list"],
    )
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, config, needle):
        data = make_labelled_tsv(tmp_path / "train.tsv")
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2 2\naccha 0.1 0.2\nbura 0.3 0.4\n", encoding="utf-8")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        rc = cli.main(
            ["train", "--config", str(path), "--data", str(data), "--embeddings", str(vectors),
             "--out", str(tmp_path / "model.ckpt"), "--seed", "1"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err
        assert not (tmp_path / "model.ckpt").exists()


class TestEvalAndPredictCmds:
    def test_eval_prints_table_and_json(self, tmp_path, capsys):
        data, vectors, config, ckpt, _ = run_pipeline(tmp_path)
        rc = cli.main(["eval", str(ckpt), str(data), "--embeddings", str(vectors)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Precision" in out and "Macro avg" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert set(payload) == {"per_class", "macro_avg", "weighted_avg", "accuracy"}

    def test_eval_accuracy_matches_hand_count(self, tmp_path, capsys):
        data, vectors, config, ckpt, _ = run_pipeline(tmp_path)
        pred_path = tmp_path / "preds.tsv"
        assert cli.main(
            ["predict", str(ckpt), str(data), "--embeddings", str(vectors),
             "--out", str(pred_path)]
        ) == 0
        predicted = {}
        for line in pred_path.read_text(encoding="utf-8").splitlines()[1:]:
            tid, label, _ = line.split("\t")
            predicted[tid] = label
        truth = {}
        for line in data.read_text(encoding="utf-8").splitlines()[1:]:
            tid, _, label = line.split("\t")
            truth[tid] = label
        hand_accuracy = sum(
            1 for tid in truth if predicted[tid] == truth[tid]
        ) / len(truth)
        cli.main(["eval", str(ckpt), str(data), "--embeddings", str(vectors)])
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["accuracy"] == pytest.approx(hand_accuracy)

    def test_eval_unlabelled_refused(self, tmp_path, capsys):
        data, vectors, config, ckpt, _ = run_pipeline(tmp_path)
        unlabelled = tmp_path / "u.tsv"
        write_tsv(unlabelled, ["u1\tkuch bhi"], header="text_id\ttext")
        rc = cli.main(["eval", str(ckpt), str(unlabelled), "--embeddings", str(vectors)])
        assert rc == 1
        assert "predict" in capsys.readouterr().err

    def test_missing_checkpoint_file_error(self, tmp_path, capsys):
        data, vectors, config, ckpt, _ = run_pipeline(tmp_path)
        rc = cli.main(
            ["eval", str(tmp_path / "missing.ckpt"), str(data),
             "--embeddings", str(vectors)]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def _zero_checkpoint(self, tmp_path):
        data = make_labelled_tsv(tmp_path / "train.tsv")
        ds = corpus.load_tsv(data)
        vocab = corpus.build_vocab(ds.token_streams(), min_count=1)
        matrix = embedding.EmbeddingMatrix(np.zeros((len(vocab), 8)))
        vectors = tmp_path / "vectors.txt"
        embedding.save_text(matrix, vocab, vectors)
        cfg = cnn.CnnConfig(embed_dim=8, filter_counts=(2, 2, 4), dense_units=8, m_max=16)
        model = cnn.CnnModel.init(np.zeros((len(vocab), 8)), cfg, seed=0)
        for k in model.params:
            model.params[k][...] = 0.0
        ckpt = tmp_path / "zero.ckpt"
        cnn.save_checkpoint(model, ckpt, cnn.vocab_hash(vocab))
        return data, vectors, ckpt

    def test_zero_weight_checkpoint_predicts_hof_half(self, tmp_path):
        data, vectors, ckpt = self._zero_checkpoint(tmp_path)
        out = tmp_path / "preds.tsv"
        assert cli.main(
            ["predict", str(ckpt), str(data), "--embeddings", str(vectors),
             "--out", str(out)]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id\tlabel\tprobability"
        assert len(lines) == 25
        for line in lines[1:]:
            assert line.endswith("\tHOF\t0.500000")

    def test_empty_input_gives_header_only(self, tmp_path):
        data, vectors, ckpt = self._zero_checkpoint(tmp_path)
        empty = tmp_path / "empty.tsv"
        write_tsv(empty, [], header="text_id\ttext")
        out = tmp_path / "preds.tsv"
        assert cli.main(
            ["predict", str(ckpt), str(empty), "--embeddings", str(vectors),
             "--out", str(out)]
        ) == 0
        assert out.read_text(encoding="utf-8") == "id\tlabel\tprobability\n"

    @staticmethod
    def _rewrite_manifest(ckpt, edit):
        """Copy of ``ckpt`` whose manifest lines (before ``end``) pass through ``edit``."""
        raw = ckpt.read_bytes()
        head, sep, blob = raw.partition(b"\nend\n")
        lines = edit(head.decode("utf-8").split("\n"))
        out = ckpt.with_name("edited.ckpt")
        out.write_bytes("\n".join(lines).encode("utf-8") + sep + blob)
        return out

    def _predict_fails_with_one_error(self, ckpt, data, vectors, tmp_path, capsys, needle):
        capsys.readouterr()
        rc = cli.main(
            ["predict", str(ckpt), str(data), "--embeddings", str(vectors),
             "--out", str(tmp_path / "preds.tsv")]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err

    def test_each_missing_manifest_key_is_named(self, tmp_path, capsys):
        data, vectors, ckpt = self._zero_checkpoint(tmp_path)
        head = ckpt.read_bytes().partition(b"\nend\n")[0].decode("utf-8").split("\n")
        keys = [line.partition(" ")[0] for line in head]
        assert len(keys) == 9
        for key in keys:
            edited = self._rewrite_manifest(
                ckpt, lambda lines, key=key: [ln for ln in lines if ln.partition(" ")[0] != key]
            )
            self._predict_fails_with_one_error(edited, data, vectors, tmp_path, capsys, repr(key))

    @pytest.mark.parametrize("value", ["0.5,0.5", "0.5,0.5,0.2,0.2,0.5,0.1", "x,0,0,0,0", ""])
    def test_bad_dropout_arity_is_named(self, tmp_path, capsys, value):
        data, vectors, ckpt = self._zero_checkpoint(tmp_path)
        edited = self._rewrite_manifest(
            ckpt,
            lambda lines: [f"dropout {value}" if ln.startswith("dropout ") else ln
                           for ln in lines],
        )
        self._predict_fails_with_one_error(edited, data, vectors, tmp_path, capsys, "'dropout'")

    def test_bad_integer_key_is_named(self, tmp_path, capsys):
        data, vectors, ckpt = self._zero_checkpoint(tmp_path)
        edited = self._rewrite_manifest(
            ckpt,
            lambda lines: ["m_max sixteen" if ln.startswith("m_max ") else ln for ln in lines],
        )
        self._predict_fails_with_one_error(edited, data, vectors, tmp_path, capsys, "'m_max'")

    def test_row_count_preserved(self, tmp_path):
        data, vectors, ckpt = self._zero_checkpoint(tmp_path)
        out = tmp_path / "preds.tsv"
        cli.main(
            ["predict", str(ckpt), str(data), "--embeddings", str(vectors),
             "--out", str(out)]
        )
        n_in = len(data.read_text(encoding="utf-8").splitlines()) - 1
        n_out = len(out.read_text(encoding="utf-8").splitlines()) - 1
        assert n_in == n_out

    def test_rows_in_input_order_across_inference_chunks(self, tmp_path):
        _, vectors, _, ckpt, _ = run_pipeline(tmp_path)
        data = make_labelled_tsv(tmp_path / "many.tsv", n=cnn.INFER_BATCH + 9, seed=3)
        out = tmp_path / "preds.tsv"
        assert cli.main(
            ["predict", str(ckpt), str(data), "--embeddings", str(vectors),
             "--out", str(out)]
        ) == 0
        _, vocab = embedding.load_text(vectors)
        model = cnn.load_checkpoint(ckpt, vocab)
        want = []
        for ex in corpus.load_tsv(data):
            p = model.forward(corpus.encode(ex.tokens, vocab).ids)
            want.append(f"{ex.tweet_id}\t{'HOF' if p >= 0.5 else 'NOT'}\t{p:.6f}")
        assert out.read_text(encoding="utf-8").splitlines()[1:] == want


def _load_text_by_line(path):
    """Reference vectors reader: split every line and parse each value with float()."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("malformed header")
        v, dim = int(header[0]), int(header[1])
        words, rows = [], []
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError("wrong column count")
            words.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    if len(words) != v:
        raise ValueError("wrong row count")
    w_in = np.array(rows, dtype=np.float64).reshape(v, dim)
    if words[:2] != ["xxpad", "xxunk"]:
        reserved = [w for w in ("xxpad", "xxunk") if w not in words]
        words = reserved + words
        w_in = np.vstack([np.zeros((len(reserved), dim)), w_in])
    return w_in, words


def _run_quietly(argv):
    """Exit code and standard error of one in-process hofkit command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


_JUNK = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([b" ", b"  ", b"\n", b"\r", b"x", b"#", b"nan", b"-", b"1e999", b"\xff"]),
)


class TestGarbledVectorsFile:
    """Every garbled or truncated vectors file gives success or exactly one error line."""

    @staticmethod
    def _workspace(root: Path):
        data = make_labelled_tsv(root / "train.tsv")
        ds = corpus.load_tsv(data)
        vocab = corpus.build_vocab(ds.token_streams(), min_count=1)
        w_in = derived_rng(0, "fuzz-vectors").normal(size=(len(vocab), 4))
        vectors = root / "vectors.txt"
        embedding.save_text(embedding.EmbeddingMatrix(w_in), vocab, vectors)
        cfg = cnn.CnnConfig(embed_dim=4, filter_counts=(2, 2, 4), dense_units=8, m_max=16)
        ckpt = root / "model.ckpt"
        cnn.save_checkpoint(cnn.CnnModel.init(w_in, cfg, seed=0), ckpt, cnn.vocab_hash(vocab))
        config = root / "config.json"
        config.write_text(json.dumps({
            "model": {"filter_counts": [2, 2, 4], "dense_units": 8, "m_max": 16},
            "train": {"epochs": 1, "batch_size": 8, "patience": 1},
        }), encoding="utf-8")
        return data, vectors, ckpt, config

    @staticmethod
    def _assert_one_outcome(rc, err, out: Path):
        if rc == 0:
            assert err == "" and out.exists()
        else:
            assert rc == 1 and err.startswith("error:") and err.count("\n") == 1, err
            assert not out.exists()
        assert not [p.name for p in out.parent.iterdir() if p.name.endswith(".tmp")]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_readers_and_commands(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            tsv, vectors, ckpt, config = self._workspace(root)
            raw = vectors.read_bytes()
            pos = data.draw(st.integers(0, len(raw)), label="pos")
            edit = data.draw(st.sampled_from(["truncate", "replace", "insert"]), label="edit")
            junk = b"" if edit == "truncate" else data.draw(_JUNK, label="junk")
            tail = raw[pos + len(junk):] if edit == "replace" else raw[pos:]
            vectors.write_bytes(raw[:pos] + junk + (b"" if edit == "truncate" else tail))

            try:
                words = embedding.load_words(vectors).words
            except ValueError:
                words = None
            try:
                matrix, vocab = embedding.load_text(vectors)
            except ValueError:
                matrix = None
            if matrix is not None:  # the values parser accepts no more than float() does
                want_w_in, want_words = _load_text_by_line(vectors)
                assert vocab.words == want_words == words
                assert np.array_equal(matrix.w_in, want_w_in, equal_nan=True)

            out = root / "preds.tsv"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a vocabulary mismatch warns
                rc, err = _run_quietly(["predict", str(ckpt), str(tsv), "--embeddings",
                                        str(vectors), "--out", str(out)])
            self._assert_one_outcome(rc, err, out)
            if words is None:
                assert rc == 1

            out = root / "trained.ckpt"
            rc, err = _run_quietly(["train", "--config", str(config), "--data", str(tsv),
                                    "--embeddings", str(vectors), "--out", str(out),
                                    "--seed", "1"])
            self._assert_one_outcome(rc, err, out)
            if matrix is None:
                assert rc == 1

    def test_predict_does_not_parse_the_values(self, tmp_path):
        tsv, vectors, ckpt, config = self._workspace(tmp_path)
        clean = tmp_path / "clean.tsv"
        assert cli.main(["predict", str(ckpt), str(tsv), "--embeddings", str(vectors),
                         "--out", str(clean)]) == 0
        lines = vectors.read_text(encoding="utf-8").split("\n")
        lines[3] = " ".join([lines[3].split(" ")[0], "not-a-number"] + lines[3].split(" ")[2:])
        vectors.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert cli.main(["predict", str(ckpt), str(tsv), "--embeddings", str(vectors),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == clean.read_bytes()
        rc, err = _run_quietly(["train", "--config", str(config), "--data", str(tsv),
                                "--embeddings", str(vectors), "--out", str(tmp_path / "m.ckpt"),
                                "--seed", "1"])
        assert rc == 1 and "not-a-number" in err and err.count("\n") == 1


class TestCvCmd:
    def _run(self, tmp_path, seed=2):
        tmp_path.mkdir(parents=True, exist_ok=True)
        data = make_labelled_tsv(tmp_path / "train.tsv", n=40)
        tokens = tmp_path / "corpus.txt"
        cli.main(["preprocess", str(data), str(tokens)])
        vectors = tmp_path / "vectors.txt"
        cli.main(
            ["embed-train", str(tokens), "--out", str(vectors), "--dim", "4",
             "--window", "2", "--min-count", "1", "--epochs", "1", "--seed", "1"]
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "model": {"filter_counts": [2, 2, 4], "dense_units": 8, "m_max": 16},
                    "dropout": {"input": 0.0, "bank3": 0.0, "bank4": 0.0,
                                "bank5": 0.0, "dense": 0.0},
                    "train": {"epochs": 1, "batch_size": 8, "patience": 1},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "cv.tsv"
        rc = cli.main(
            ["cv", "--config", str(config), "--data", str(data),
             "--embeddings", str(vectors), "--folds", "10", "--seed", str(seed),
             "--out", str(out)]
        )
        assert rc == 0
        return out.read_text(encoding="utf-8")

    def test_ten_rows_plus_mean(self, tmp_path):
        table = self._run(tmp_path)
        lines = table.strip().splitlines()
        assert lines[0] == "fold\tmacro_f1"
        assert len(lines) == 12
        assert lines[-1].startswith("mean\t")

    def test_mean_is_arithmetic_mean(self, tmp_path):
        lines = self._run(tmp_path).strip().splitlines()
        scores = [float(line.split("\t")[1]) for line in lines[1:-1]]
        mean = float(lines[-1].split("\t")[1])
        assert abs(mean - sum(scores) / len(scores)) < 1e-6 + 1e-9

    def test_same_seed_identical_table(self, tmp_path):
        t1 = self._run(tmp_path / "x")
        t2 = self._run(tmp_path / "y")
        assert t1 == t2

    def test_adjacent_seeds_draw_disjoint_fold_seeds(self, tmp_path, monkeypatch):
        # record each fold's training seed; skipping the training keeps this fast
        seen = []
        monkeypatch.setattr(cnn, "train_model", lambda model, tr, va, cfg: seen.append(cfg.seed))
        self._run(tmp_path / "s7", seed=7)
        self._run(tmp_path / "s8", seed=8)
        seven, eight = seen[:10], seen[10:]
        assert len(set(seven)) == 10 and len(set(eight)) == 10
        assert set(seven).isdisjoint(eight)
        assert seven == derived_seeds(7, "cv-fold", 10)

    def test_fold_seed_streams_of_adjacent_seeds_never_collide(self):
        streams = [derived_seeds(seed, "cv-fold", 10) for seed in range(50)]
        for a, b in zip(streams, streams[1:]):
            assert len(set(a)) == 10
            assert set(a).isdisjoint(b)

    def test_too_few_examples_errors(self, tmp_path, capsys):
        data = make_labelled_tsv(tmp_path / "small.tsv", n=6)
        tokens = tmp_path / "c.txt"
        cli.main(["preprocess", str(data), str(tokens)])
        vectors = tmp_path / "v.txt"
        cli.main(
            ["embed-train", str(tokens), "--out", str(vectors), "--dim", "4",
             "--min-count", "1", "--epochs", "1", "--seed", "1"]
        )
        rc = cli.main(
            ["cv", "--data", str(data), "--embeddings", str(vectors),
             "--folds", "10", "--seed", "1"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestBaselineCmd:
    def test_grid_table_shape(self, tmp_path, capsys):
        data = make_labelled_tsv(tmp_path / "train.tsv", n=30)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"alpha": [0.1, 1.0, 10.0]}), encoding="utf-8")
        out = tmp_path / "table.tsv"
        rc = cli.main(
            ["baseline", "--model", "mnb", "--data", str(data), "--grid", str(grid),
             "--folds", "5", "--min-count", "1", "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 4  # header + 3 grid points
        header = lines[0].split("\t")
        assert header[0] == "params" and header[-2:] == ["mean", "best"]
        assert sum(1 for line in lines[1:] if line.endswith("*")) == 1

    def test_default_grid_used_without_file(self, tmp_path):
        data = make_labelled_tsv(tmp_path / "train.tsv", n=30)
        rc = cli.main(
            ["baseline", "--model", "knn", "--data", str(data), "--folds", "5",
             "--min-count", "1", "--seed", "4", "--out", str(tmp_path / "t.tsv")]
        )
        assert rc == 0

    def test_diverging_dnn_is_one_error_line(self, tmp_path, capsys):
        data = make_labelled_tsv(tmp_path / "train.tsv", n=30)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lr": [1e300]}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy overflow warning fails the test
            rc = cli.main(
                ["baseline", "--model", "dnn", "--data", str(data), "--grid", str(grid),
                 "--folds", "5", "--min-count", "1", "--seed", "4"]
            )
        assert rc == 1
        assert DIVERGED.fullmatch(capsys.readouterr().err)

    @pytest.mark.parametrize("grid", [{"alpha": 1.0}, [1, 2]], ids=["scalar-values", "list-of-numbers"])
    def test_malformed_grid_is_one_error_line(self, tmp_path, capsys, grid):
        data = make_labelled_tsv(tmp_path / "train.tsv", n=30)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        rc = cli.main(
            ["baseline", "--model", "mnb", "--data", str(data), "--grid", str(path),
             "--folds", "5", "--min-count", "1", "--seed", "4"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "dict of value lists" in err
