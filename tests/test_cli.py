import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofkit import baselines, cli, cnn, corpus, embedding
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


def test_one_parser_serves_every_command(tmp_path, capsys):
    # main reuses one parser; a fresh one must parse and reject argv the same way
    fresh = cli.build_parser.__wrapped__
    assert cli.build_parser() is cli.build_parser()
    data = make_labelled_tsv(tmp_path / "train.tsv")
    tokens = tmp_path / "corpus.txt"
    commands = [
        ["preprocess", str(data), str(tokens)],
        ["embed-train", str(tokens), "--out", str(tmp_path / "vectors.txt"), "--dim", "4",
         "--min-count", "1", "--epochs", "1", "--seed", "3"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
    capsys.readouterr()
    with pytest.raises(SystemExit) as fresh_exit:
        fresh().parse_args(["preprocess", str(data)])
    fresh_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as main_exit:
        cli.main(["preprocess", str(data)])
    assert main_exit.value.code == fresh_exit.value.code == 2
    assert capsys.readouterr().err == fresh_err
    assert "error: the following arguments are required: output" in fresh_err


# Every argument of every subcommand: (option string, or "" for a positional;
# dest, type, default, required, choices, help). Positionals come first, in
# parse order; options follow, sorted. A flag is added or changed by editing
# this table.
PARSER_SURFACE = {
    "preprocess": [
        ("", "input", None, None, True, None, None),
        ("", "output", None, None, True, None, None),
        ("--config", "config", None, None, False, None, None),
        ("--suffixes", "suffixes", None, None, False, None, "custom stemmer suffix table"),
    ],
    "embed-train": [
        ("", "corpus", None, None, True, None, None),
        ("--config", "config", None, None, False, None, None),
        ("--dim", "dim", int, None, False, None, None),
        ("--epochs", "epochs", int, None, False, None, None),
        ("--lr", "initial_lr", float, None, False, None, None),
        ("--min-count", "min_count", int, None, False, None, None),
        ("--negatives", "negatives", int, None, False, None, None),
        ("--objective", "objective", None, None, False, ["cbow", "skipgram"], None),
        ("--out", "out", None, None, True, None, None),
        ("--seed", "seed", int, None, False, None, None),
        ("--vocab-out", "vocab_out", None, None, False, None, None),
        ("--window", "window", int, None, False, None, None),
    ],
    "train": [
        ("--batch-size", "batch_size", int, None, False, None, None),
        ("--config", "config", None, None, False, None, None),
        ("--data", "data", None, None, False, None, None),
        ("--embeddings", "embeddings", None, None, False, None, None),
        ("--epochs", "epochs", int, None, False, None, None),
        ("--history", "history", None, None, False, None, None),
        ("--lr", "lr", float, None, False, None, None),
        ("--out", "out", None, None, False, None, None),
        ("--patience", "patience", int, None, False, None, None),
        ("--seed", "seed", int, None, False, None, None),
        ("--suffixes", "suffixes", None, None, False, None, None),
    ],
    "eval": [
        ("", "checkpoint", None, None, True, None, None),
        ("", "data", None, None, True, None, None),
        ("--config", "config", None, None, False, None, None),
        ("--embeddings", "embeddings", None, None, True, None, None),
        ("--suffixes", "suffixes", None, None, False, None, None),
    ],
    "predict": [
        ("", "checkpoint", None, None, True, None, None),
        ("", "data", None, None, True, None, None),
        ("--config", "config", None, None, False, None, None),
        ("--embeddings", "embeddings", None, None, True, None, None),
        ("--out", "out", None, None, True, None, None),
        ("--suffixes", "suffixes", None, None, False, None, None),
    ],
    "cv": [
        ("--batch-size", "batch_size", int, None, False, None, None),
        ("--config", "config", None, None, False, None, None),
        ("--data", "data", None, None, False, None, None),
        ("--embeddings", "embeddings", None, None, False, None, None),
        ("--epochs", "epochs", int, None, False, None, None),
        ("--folds", "folds", int, None, False, None, None),
        ("--lr", "lr", float, None, False, None, None),
        ("--out", "out", None, None, False, None, None),
        ("--patience", "patience", int, None, False, None, None),
        ("--seed", "seed", int, None, False, None, None),
        ("--suffixes", "suffixes", None, None, False, None, None),
    ],
    "baseline": [
        ("--config", "config", None, None, False, None, None),
        ("--data", "data", None, None, False, None, None),
        ("--folds", "folds", int, None, False, None, None),
        ("--grid", "grid", None, None, False, None, "JSON file: parameter name -> list of values"),
        ("--min-count", "min_count", int, 2, False, None, None),
        ("--model", "model", None, None, True, ["mnb", "ridge", "knn", "dnn"], None),
        ("--out", "out", None, None, False, None, None),
        ("--seed", "seed", int, None, False, None, None),
        ("--suffixes", "suffixes", None, None, False, None, None),
    ],
}


def _surface(parser):
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for name, command in commands.choices.items():
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        positionals = [a for a in actions if not a.option_strings]
        options = sorted((a for a in actions if a.option_strings), key=lambda a: a.option_strings)
        surface[name] = [
            (" ".join(a.option_strings), a.dest, a.type, a.default, a.required, a.choices, a.help)
            for a in positionals + options
        ]
    return surface


def test_parser_surface_is_pinned():
    surface = _surface(cli.build_parser())
    assert list(surface) == list(PARSER_SURFACE)
    for name, rows in PARSER_SURFACE.items():
        assert surface[name] == rows, name


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "argv",
    [
        ["embed-train", "missing.txt", "--out", "vectors.txt"],
        ["train", "--data", "missing.tsv", "--embeddings", "missing.txt", "--out", "m.ckpt"],
        ["cv", "--data", "missing.tsv", "--embeddings", "missing.txt"],
        ["baseline", "--model", "mnb", "--data", "missing.tsv"],
    ],
    ids=["embed-train", "train", "cv", "baseline"],
)
def test_negative_seed_is_one_error_line_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                                  argv, source):
    monkeypatch.chdir(tmp_path)
    if source == "flag":
        argv = argv + ["--seed", "-3"]
    else:
        Path("config.json").write_text('{"seed": -3}', encoding="utf-8")
        argv = argv + ["--config", "config.json"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be a whole number >= 0, got -3\n"
    written = ["config.json"] if source == "config" else []
    assert sorted(p.name for p in tmp_path.iterdir()) == written


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

    @pytest.mark.parametrize("lr", ["nan", "inf", "-1", "0"])
    def test_bad_learning_rate_is_one_error_line(self, tmp_path, capsys, lr):
        tokens = tmp_path / "c.txt"
        tokens.write_text("a b a b\nb a b a\n", encoding="utf-8")
        out = tmp_path / "v.txt"
        rc = cli.main(
            ["embed-train", str(tokens), "--out", str(out), "--dim", "4", "--min-count", "1",
             "--epochs", "1", "--seed", "1", "--lr", lr]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: initial_lr must be positive and finite, got {float(lr)}\n"
        assert not out.exists()

    def test_bad_learning_rate_in_config_names_the_key(self, tmp_path, capsys):
        tokens = tmp_path / "c.txt"
        tokens.write_text("a b a b\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text('{"embedding": {"initial_lr": NaN}}', encoding="utf-8")
        rc = cli.main(
            ["embed-train", str(tokens), "--out", str(tmp_path / "v.txt"), "--config",
             str(config), "--min-count", "1", "--seed", "1"]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config {config}: initial_lr must be positive and finite, got nan\n"
        )

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
            ({"train": {"eps": 0}}, "eps must be positive and finite, got 0.0"),
            ({"train": {"eps": -1}}, "eps must be positive and finite, got -1.0"),
            ({"train": {"eps": float("inf")}}, "eps must be positive and finite, got inf"),
            ({"train": {"beta2": 1.5}}, "beta2 must be in [0, 1), got 1.5"),
            ({"train": {"beta1": 1}}, "beta1 must be in [0, 1), got 1.0"),
            ({"train": {"beta1": -0.1}}, "beta1 must be in [0, 1), got -0.1"),
            ({"train": {"lr": float("nan")}}, "lr must be positive and finite, got nan"),
            ({"train": {"lr": float("inf")}}, "lr must be positive and finite, got inf"),
            ({"train": {"lr": 0}}, "lr must be positive and finite, got 0.0"),
        ],
        ids=["top-level-list", "section-not-object", "null-number", "filter-counts-not-list",
             "eps-zero", "eps-negative", "eps-infinite", "beta2-above-one", "beta1-one",
             "beta1-negative", "lr-nan", "lr-infinite", "lr-zero"],
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

    @staticmethod
    def _train_with_config(tmp_path, config, omit=()):
        """``train`` under ``config``, with every path flag but those in ``omit``."""
        tmp_path.mkdir(exist_ok=True)
        data = make_labelled_tsv(tmp_path / "train.tsv")
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2 2\naccha 0.1 0.2\nbura 0.3 0.4\n", encoding="utf-8")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        flags = {"--data": data, "--embeddings": vectors, "--out": tmp_path / "model.ckpt",
                 "--history": tmp_path / "history.tsv"}
        argv = ["train", "--config", str(path), "--seed", "1"]
        for flag, value in flags.items():
            if flag not in omit:
                argv += [flag, str(value)]
        return cli.main(argv), path

    @pytest.mark.parametrize(
        "key, flag",
        [("data", "--data"), ("embeddings", "--embeddings"), ("checkpoint", "--out"),
         ("history", "--history"), ("suffixes", None)],
    )
    def test_path_key_holding_a_number_is_one_error_line(self, tmp_path, capsys, key, flag):
        # without the flag, the config value is the path train would use
        rc, path = self._train_with_config(tmp_path, {key: 1}, omit=(flag,))
        assert rc == 1
        assert capsys.readouterr().err == f"error: config {path}: {key} must be a string, got 1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "train.tsv", "vectors.txt"
        ]

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_stratify_other_than_a_boolean_is_one_error_line(self, tmp_path, capsys, value):
        rc, path = self._train_with_config(tmp_path, {"stratify": value})
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config {path}: stratify must be true or false, got {json.dumps(value)}\n"
        )
        assert not (tmp_path / "model.ckpt").exists()

    def test_stratify_reaches_the_split(self, tmp_path, monkeypatch):
        seen = []
        split = corpus.split_train_val

        def recording(ds, val_fraction, seed, stratified):
            seen.append(stratified)
            return split(ds, val_fraction, seed, stratified)

        monkeypatch.setattr(corpus, "split_train_val", recording)
        config = {"model": {"filter_counts": [2, 2, 4], "dense_units": 4, "m_max": 8},
                  "train": {"epochs": 1}}
        for i, stratify in enumerate([True, False, None]):
            extra = {} if stratify is None else {"stratify": stratify}
            rc, _ = self._train_with_config(tmp_path / str(i), {**config, **extra})
            assert rc == 0
        assert seen == [True, False, False]

    def test_stratify_reaches_each_cv_fold_split(self, tmp_path, monkeypatch):
        seen = []
        split = corpus.split_train_val

        def recording(ds, val_fraction, seed, stratified=False):
            seen.append(stratified)
            return split(ds, val_fraction, seed, stratified)

        monkeypatch.setattr(corpus, "split_train_val", recording)
        monkeypatch.setattr(cnn, "train_model", lambda *args: None)  # only the splits matter
        config = {"model": {"filter_counts": [2, 2, 4], "dense_units": 4, "m_max": 8},
                  "folds": 3}
        for i, stratify in enumerate([True, False, None]):
            extra = {} if stratify is None else {"stratify": stratify}
            (tmp_path / str(i)).mkdir()
            rc, _ = self._run_with_config(tmp_path / str(i), "cv", json.dumps({**config, **extra}))
            assert rc == 0
        assert seen == [True] * 3 + [False] * 6

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("train", '{"train": {"epoch": 1}}',
             "train.epoch is not a config key "
             "(train takes epochs, batch_size, lr, beta1, beta2, eps, patience)"),
            ("train", '{"modle": {}}',
             "modle is not a config key (the top level takes seed, val_fraction, folds, stratify, "
             "data, embeddings, checkpoint, history, suffixes, model, dropout, train, embedding)"),
            ("train", '{"model": {"dropout": {}}}',
             "model.dropout is not a config key (model takes embed_dim, filter_counts, "
             "dense_units, m_max)"),
            ("cv", '{"train": {"seed": 1}}',
             "train.seed is not a config key "
             "(train takes epochs, batch_size, lr, beta1, beta2, eps, patience)"),
            ("train", '{"train": {"epochs": "3"}}', 'train.epochs must be a number, got "3"'),
            ("train", '{"dropout": {"input": "0.3"}}', 'dropout.input must be a number, got "0.3"'),
            ("train", '{"val_fraction": "0.3"}', 'val_fraction must be a number, got "0.3"'),
            ("train", '{"model": {"filter_counts": [2, "2", 4]}}',
             'model.filter_counts must be a number, got "2"'),
            ("embed-train", '{"embedding": {"objective": 5}}',
             "embedding.objective must be a string, got 5"),
            ("train", '{"embedding": {"objective": 5}}',
             "embedding.objective must be a string, got 5"),
            ("embed-train", '{"train": {"epochs": "3"}}', 'train.epochs must be a number, got "3"'),
        ],
        ids=["misspelt-key", "unknown-section", "model-dropout", "train-seed", "string-epochs",
             "string-dropout", "string-val-fraction", "string-filter-count", "number-objective",
             "objective-unread-by-train", "epochs-unread-by-embed-train"],
    )
    def test_config_defect_is_one_error_line_naming_the_file(self, tmp_path, capsys, command,
                                                              text, message):
        rc, out = self._run_with_config(tmp_path, command, text)
        path = tmp_path / "config.json"
        assert rc == 1
        assert capsys.readouterr().err == f"error: config {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"train": {"epochs": 2,\n "lr": "\xff"}}',
             "byte 0xff is not UTF-8 (invalid start byte), line 2"),
            (b'{"train": {"epochs": 2, }}',
             "Expecting property name enclosed in double quotes: line 1 column 25 (char 24)"),
        ],
        ids=["not-utf8", "bad-json"],
    )
    def test_unreadable_config_is_one_error_line_naming_the_file(self, tmp_path, capsys,
                                                                  content, message):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        rc, out = self._run_with_config(tmp_path, "train", None)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: config {path}: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, text, flags, message",
        [
            ("train", '{"embedding": {"objective": "skipgrm"}}', [], "unknown objective 'skipgrm'"),
            ("embed-train", '{"train": {"lr": 0}}', [], "lr must be positive and finite, got 0.0"),
            ("train", '{"train": {"lr": 0}}', ["--lr", "0.01"],
             "lr must be positive and finite, got 0.0"),
            ("cv", '{"dropout": {"dense": 1}}', [], "dropout rate dense=1.0 outside [0, 1)"),
            ("embed-train", '{"model": {"filter_counts": [2, 2, 2]}}', [],
             "filter counts must keep the 1:1:2 ratio, got (2, 2, 2)"),
        ],
        ids=["objective-unread-by-train", "lr-unread-by-embed-train", "flag-over-bad-lr",
             "dropout-rate-under-cv", "filter-ratio-unread-by-embed-train"],
    )
    def test_out_of_range_value_is_one_error_line_whichever_command_runs(
        self, tmp_path, capsys, command, text, flags, message
    ):
        rc, out = self._run_with_config(tmp_path, command, text, flags)
        path = tmp_path / "config.json"
        assert rc == 1
        assert capsys.readouterr().err == f"error: config {path}: {message}\n"
        assert not out.exists()

    def test_readme_config_loads_and_trains(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        text = re.search(r"A config is JSON.*?```json\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.json"
        path.write_text(text, encoding="utf-8")
        config = json.loads(text)
        # every section is present, so the loaded config is the file with lists as tuples
        assert json.loads(json.dumps(cli._load_config(path))) == config
        rc, _ = self._train_with_config(tmp_path, config)
        assert rc == 0
        assert (tmp_path / "model.ckpt").exists()


    @pytest.mark.parametrize(
        "command, text, key, shown",
        [
            ("train", '{"train": {"epochs": 1e999}}', "train.epochs", "Infinity"),
            ("train", '{"train": {"epochs": Infinity}}', "train.epochs", "Infinity"),
            ("train", '{"train": {"patience": NaN}}', "train.patience", "NaN"),
            ("train", '{"train": {"batch_size": -Infinity}}', "train.batch_size", "-Infinity"),
            ("train", '{"model": {"dense_units": 1e999}}', "model.dense_units", "Infinity"),
            ("train", '{"model": {"m_max": NaN}}', "model.m_max", "NaN"),
            ("train", '{"model": {"embed_dim": Infinity}}', "model.embed_dim", "Infinity"),
            ("train", '{"model": {"filter_counts": [2, 2, 1e999]}}', "model.filter_counts",
             "Infinity"),
            ("train", '{"train": {"lr": 1' + "0" * 400 + "}}", "train.lr", "1" + "0" * 400),
            ("train-unseeded", '{"seed": 1e999}', "seed", "Infinity"),
            ("cv", '{"folds": 1e999}', "folds", "Infinity"),
            ("cv", '{"train": {"epochs": 1e999}}', "train.epochs", "Infinity"),
            ("embed-train", '{"embedding": {"dim": Infinity}}', "embedding.dim", "Infinity"),
        ],
    )
    def test_number_no_conversion_takes_is_one_error_line(self, tmp_path, capsys, command, text,
                                                           key, shown):
        rc, out = self._run_with_config(tmp_path, command, text)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("embed-train", '{"embedding": {"dim": true}}', "embedding.dim must be a number, got true"),
            ("train", '{"train": {"epochs": 2.9}}', "train.epochs must be a whole number, got 2.9"),
            ("train", '{"train": {"lr": false}}', "train.lr must be a number, got false"),
            ("train", '{"model": {"filter_counts": [2, true, 4]}}',
             "model.filter_counts must be a number, got true"),
            ("train", '{"val_fraction": true}', "val_fraction must be a number, got true"),
            ("train-unseeded", '{"seed": 1.5}', "seed must be a whole number, got 1.5"),
            ("cv", '{"folds": false}', "folds must be a number, got false"),
        ],
        ids=["bool-dim", "fraction-epochs", "bool-lr", "bool-filter-count", "bool-val-fraction",
             "fraction-seed", "bool-folds"],
    )
    def test_boolean_or_fraction_for_a_number_is_one_error_line(self, tmp_path, capsys, command,
                                                                text, message):
        rc, out = self._run_with_config(tmp_path, command, text)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_whole_float_for_a_count_is_accepted(self, tmp_path):
        config = {"model": {"filter_counts": [2, 2, 4], "dense_units": 4.0, "m_max": 8},
                  "train": {"epochs": 1.0}}
        rc, _ = self._train_with_config(tmp_path, config)
        assert rc == 0

    @staticmethod
    def _run_with_config(tmp_path, command, text, flags=()):
        """Exit code and output path of ``command`` under the config file ``text``.

        With ``text`` None, ``config.json`` in ``tmp_path`` is used as it stands.
        """
        data = make_labelled_tsv(tmp_path / "train.tsv")
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2 2\naccha 0.1 0.2\nbura 0.3 0.4\n", encoding="utf-8")
        path = tmp_path / "config.json"
        if text is not None:  # else the file is already written
            path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--data", str(data), "--embeddings", str(vectors), "--out", str(out),
                      "--seed", "1"],
            "cv": ["cv", "--data", str(data), "--embeddings", str(vectors), "--out", str(out),
                   "--seed", "1"],
            "embed-train": ["embed-train", str(data), "--out", str(out), "--seed", "1"],
        }
        argv["train-unseeded"] = argv["train"][:-2]
        return cli.main(argv[command] + ["--config", str(path), *flags]), out


@pytest.mark.parametrize("command", ["train", "cv"])
def test_float64_table_is_released_before_training(tmp_path, monkeypatch, command):
    tables, trained = [], []
    load_text, train_model = embedding.load_text, cnn.train_model

    def loading(path):
        matrix, vocab = load_text(path)
        tables.append(weakref.ref(matrix.w_in))
        return matrix, vocab

    def training(*args):
        assert len(tables) == 1 and tables[0]() is None, "the float64 table outlives its cast"
        trained.append(args[0].params["emb"].dtype)
        return train_model(*args)

    monkeypatch.setattr(embedding, "load_text", loading)
    monkeypatch.setattr(cnn, "train_model", training)
    config = {"model": {"filter_counts": [2, 2, 4], "dense_units": 4, "m_max": 8},
              "train": {"epochs": 1}, "folds": 3}
    rc, out = TestConfigValidation._run_with_config(tmp_path, command, json.dumps(config))
    assert rc == 0 and out.exists()
    assert trained == [np.float32] * (1 if command == "train" else 3)


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
            p = model.predict_proba([corpus.encode(ex.tokens, vocab).ids])[0]
            want.append(f"{ex.tweet_id}\t{'HOF' if p >= 0.5 else 'NOT'}\t{p:.6f}")
        assert out.read_text(encoding="utf-8").splitlines()[1:] == want

    @staticmethod
    def _hofkit(*argv):
        """Exit code and standard error of hofkit in a fresh interpreter, Python's warnings too."""
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run([sys.executable, "-m", "hofkit.cli", *map(str, argv)], env=env,
                              capture_output=True, text=True)
        return done.returncode, done.stderr

    @staticmethod
    def _edit_vectors(vectors, edit):
        header, *rows = vectors.read_text(encoding="utf-8").splitlines(keepends=True)
        v, dim = map(int, header.split())
        rows = edit(rows)
        vectors.write_text(f"{len(rows)} {dim}\n" + "".join(rows), encoding="utf-8")
        return v

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_vocabulary_size_mismatch_is_one_error_line(self, tmp_path, command):
        data, vectors, ckpt = self._zero_checkpoint(tmp_path)
        v = self._edit_vectors(vectors, lambda rows: rows[:-1])  # its hash differs too
        out = tmp_path / "preds.tsv"
        extra = ["--out", out] if command == "predict" else []
        rc, err = self._hofkit(command, ckpt, data, "--embeddings", vectors, *extra)
        assert rc == 1
        assert err == (
            f"error: checkpoint vocabulary size {v} does not match embeddings file "
            f"({v - 1} words)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_renamed_word_is_one_warning_line(self, tmp_path, command):
        data, vectors, ckpt = self._zero_checkpoint(tmp_path)

        def rename_last(rows):
            return rows[:-1] + ["renamed " + rows[-1].partition(" ")[2]]

        self._edit_vectors(vectors, rename_last)  # same size, other hash
        out = tmp_path / "preds.tsv"
        extra = ["--out", out] if command == "predict" else []
        rc, err = self._hofkit(command, ckpt, data, "--embeddings", vectors, *extra)
        assert rc == 0
        assert err == "warning: checkpoint vocab hash does not match the provided vocabulary\n"


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

    @pytest.mark.parametrize("char", [b"\x1c", b"\x1d", b"\x1e", b"\x1f"])
    def test_separator_over_a_sign_is_one_error_line(self, tmp_path, char):
        # np.loadtxt strips U+001C..U+001F around a value and float() does
        # not: 0x1C over a minus sign once loaded "\x1c0.0768..." as +0.0768
        tsv, vectors, ckpt, config = self._workspace(tmp_path)
        raw = vectors.read_bytes()
        pos = raw.index(b" -") + 1
        lineno = raw[:pos].count(b"\n") + 1
        vectors.write_bytes(raw[:pos] + char + raw[pos + 1:])
        needle = f"control character U+{ord(char):04X}, line {lineno}"
        for reader in (embedding.load_words, embedding.load_text):
            with pytest.raises(ValueError, match=re.escape(needle)):
                reader(vectors)
        for argv, out in [
            (["predict", str(ckpt), str(tsv), "--embeddings", str(vectors)], "preds.tsv"),
            (["train", "--config", str(config), "--data", str(tsv), "--embeddings", str(vectors),
              "--seed", "1"], "trained.ckpt"),
        ]:
            rc, err = _run_quietly(argv + ["--out", str(tmp_path / out)])
            assert rc == 1 and needle in err
            self._assert_one_outcome(rc, err, tmp_path / out)

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


class TestGarbledCheckpoint:
    """``predict`` on a truncated, bit-flipped or garbled checkpoint gives success
    or exactly one error line, and leaves no output behind."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_predict(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            tsv, vectors, ckpt, _ = TestGarbledVectorsFile._workspace(root)
            raw = ckpt.read_bytes()
            manifest_end = raw.index(b"\nend\n") + len(b"\nend\n")
            edit = data.draw(st.sampled_from(["truncate", "flip", "manifest"]), label="edit")
            if edit == "truncate":
                raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="size")]
            elif edit == "flip":  # xor a few bytes of the manifest or of the parameters
                lo, hi = data.draw(
                    st.sampled_from([(0, manifest_end), (manifest_end, len(raw))]), label="part"
                )
                raw = bytearray(raw)
                for _ in range(data.draw(st.integers(1, 4), label="flips")):
                    pos = data.draw(st.integers(lo, hi - 1), label="pos")
                    raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
                raw = bytes(raw)
            else:  # one manifest line's value replaced, or the line dropped
                lines = raw[:manifest_end].split(b"\n")
                i = data.draw(st.integers(0, len(lines) - 2), label="line")
                key = lines[i].partition(b" ")[0]
                value = data.draw(
                    st.one_of(_JUNK, st.sampled_from([b"0", b"-1", b"1", b"2", b"9" * 30,
                                                      b"1,1,2", b"0.5,0.5", b"nan,inf"])),
                    label="value",
                )
                lines[i] = b"" if data.draw(st.booleans(), label="drop") else key + b" " + value
                raw = b"\n".join(lines) + raw[manifest_end:]
            ckpt.write_bytes(raw)

            out = root / "preds.tsv"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a vocabulary mismatch warns
                rc, err = _run_quietly(["predict", str(ckpt), str(tsv), "--embeddings",
                                        str(vectors), "--out", str(out)])
            TestGarbledVectorsFile._assert_one_outcome(rc, err, out)

    def test_overflowing_parameters(self, tmp_path):
        tsv, vectors, ckpt, _ = TestGarbledVectorsFile._workspace(tmp_path)
        model = cnn.load_checkpoint(ckpt)
        model.params["conv3_w"][...] = 3e38  # finite, but every window's sum overflows
        cnn.save_checkpoint(model, ckpt)
        out = tmp_path / "preds.tsv"
        rc, err = _run_quietly(["predict", str(ckpt), str(tsv), "--embeddings", str(vectors),
                                "--out", str(out)])
        assert rc == 1 and err == (
            "error: the model gives a non-finite probability: its parameters overflow\n"
        )
        assert not out.exists()


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

    @pytest.mark.parametrize("seed", [3, 8])
    def test_cv_and_baseline_score_the_same_tweets_in_each_fold(self, tmp_path, monkeypatch, seed):
        self._run(tmp_path, seed=seed)  # writes the data and the vectors
        real_encode = corpus.encode_dataset
        owners = []  # (encoded example, its tweet's id), for every example either command encodes

        def encode_dataset(ds, vocab):
            encoded = real_encode(ds, vocab)
            owners.extend(zip(encoded, (ex.tweet_id for ex in ds)))
            return encoded

        def tweet_ids(examples):
            return sorted(next(tid for enc, tid in owners if enc is ex) for ex in examples)

        cv_folds, baseline_folds = [], []

        def predict_batch(model, examples):
            cv_folds.append(tweet_ids(examples))
            return [ex.label for ex in examples]

        def fold_scores(family, points, train, test, vocab_size, seed):
            baseline_folds.append(tweet_ids(test))
            return [0.5] * len(points)

        monkeypatch.setattr(corpus, "encode_dataset", encode_dataset)
        monkeypatch.setattr(cnn, "train_model", lambda *args: None)
        monkeypatch.setattr(cnn.CnnModel, "predict_batch", predict_batch)
        monkeypatch.setattr(baselines, "_fold_scores", fold_scores)
        data, vectors = tmp_path / "train.tsv", tmp_path / "vectors.txt"
        common = ["--data", str(data), "--folds", "5", "--seed", str(seed)]
        assert cli.main(["cv", "--embeddings", str(vectors)] + common) == 0
        assert cli.main(["baseline", "--model", "mnb", "--min-count", "1"] + common) == 0
        assert len(cv_folds) == 5
        assert cv_folds == baseline_folds
        assert sorted(t for fold in cv_folds for t in fold) == sorted(f"t{i}" for i in range(40))

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

    @pytest.mark.parametrize("flags, folds", [([], 3), (["--folds", "4"], 4)])
    def test_config_folds_sets_the_fold_count_unless_flagged(self, tmp_path, flags, folds):
        data = make_labelled_tsv(tmp_path / "train.tsv", n=30)
        config = tmp_path / "config.json"
        config.write_text('{"folds": 3}', encoding="utf-8")
        out = tmp_path / "table.tsv"
        rc = cli.main(
            ["baseline", "--model", "mnb", "--data", str(data), "--config", str(config),
             "--min-count", "1", "--seed", "4", "--out", str(out)] + flags
        )
        assert rc == 0
        header = out.read_text(encoding="utf-8").splitlines()[0].split("\t")
        assert header == ["params"] + [f"fold_{i}" for i in range(folds)] + ["mean", "best"]

    def test_fractional_min_count_is_a_usage_error(self, tmp_path, capsys):
        data = make_labelled_tsv(tmp_path / "train.tsv", n=30)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["baseline", "--model", "mnb", "--data", str(data), "--min-count", "2.5",
                      "--seed", "4"])
        assert exit_.value.code == 2
        assert "argument --min-count: invalid int value: '2.5'" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "family, grid, needle",
        [
            ("knn", '{"k": [2.5]}', "k must be a whole number >= 1, got 2.5"),
            ("knn", '{"k": [3, 1e999]}', "k must be a whole number >= 1, got inf"),
            ("knn", '{"k": [0]}', "k must be a whole number >= 1, got 0"),
            ("mnb", '{"alpha": [0.5, NaN]}', "alpha must be a finite number > 0, got nan"),
            ("mnb", '{"alpha": [0]}', "alpha must be a finite number > 0, got 0"),
            ("ridge", '{"lambda": [Infinity]}', "lambda must be a finite number > 0, got inf"),
            ("mnb", '{"alpah": [0.5]}', "mnb has no parameter 'alpah' (it takes alpha)"),
            ("knn", '[{"k": 3}, {"alpha": 1.0}]', "knn has no parameter 'alpha' (it takes k)"),
            ("dnn", '{"epochs": [true]}', "epochs must be a whole number >= 1, got True"),
            ("dnn", '{"batch_size": [0]}', "batch_size must be a whole number >= 1, got 0"),
            ("dnn", '{"lr": [-0.1]}', "lr must be a finite number > 0, got -0.1"),
            ("dnn", '{"lr": ["0.04"]}', "lr must be a finite number > 0, got '0.04'"),
            ("dnn", '{"seed": [-1]}', "seed must be a whole number >= 0, got -1"),
        ],
    )
    def test_bad_grid_point_is_one_error_line_before_any_fold(self, tmp_path, capsys, monkeypatch,
                                                              family, grid, needle):
        fits = []
        monkeypatch.setattr(baselines, "_fit", lambda *args: fits.append(args))
        data = make_labelled_tsv(tmp_path / "train.tsv", n=30)
        path = tmp_path / "grid.json"
        path.write_text(grid, encoding="utf-8")
        out = tmp_path / "table.tsv"
        rc = cli.main(
            ["baseline", "--model", family, "--data", str(data), "--grid", str(path),
             "--folds", "3", "--min-count", "1", "--seed", "4", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: grid point") and err.count("\n") == 1
        assert needle in err
        assert fits == [] and not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"alpha":\n [0.5, \xff]}', "byte 0xff is not UTF-8 (invalid start byte), line 2"),
            (b'{"alpha": [0.5 1.0]}', "Expecting ',' delimiter: line 1 column 16 (char 15)"),
        ],
        ids=["not-utf8", "bad-json"],
    )
    def test_unreadable_grid_is_one_error_line_naming_the_file(self, tmp_path, capsys,
                                                                content, message):
        data = make_labelled_tsv(tmp_path / "train.tsv", n=30)
        path = tmp_path / "grid.json"
        path.write_bytes(content)
        out = tmp_path / "table.tsv"
        rc = cli.main(
            ["baseline", "--model", "mnb", "--data", str(data), "--grid", str(path),
             "--folds", "3", "--min-count", "1", "--seed", "4", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: grid {path}: {message}\n"
        assert captured.out == "" and not out.exists()

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
