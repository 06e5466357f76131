"""Each output check accepts the program's real output and rejects a corrupted copy.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from hofkit import cli  # noqa: E402
from hofkit.preprocess import preprocess  # noqa: E402

SEED = 5


def hofkit(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


def corrupt(src: Path, dst: Path, edit) -> Path:
    """Copy ``src`` to ``dst`` with ``edit`` applied to its list of lines."""
    lines = src.read_text(encoding="utf-8").split("\n")
    dst.write_text("\n".join(edit(lines)), encoding="utf-8")
    return dst


def set_line(index, fn):
    def edit(lines):
        lines[index] = fn(lines[index])
        return lines
    return edit


def swap(i, j):
    def edit(lines):
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    return edit


# -- preprocess and embed-train --------------------------------------------------


@pytest.fixture(scope="module")
def pretrain(tmp_path_factory):
    work = tmp_path_factory.mktemp("pretrain")
    inputs = gen.generate("pretrain", SEED, work / "in")
    hofkit("preprocess", inputs.files["raw"], work / "corpus.txt")
    hofkit("embed-train", work / "corpus.txt", "--out", work / "vectors.txt", "--dim", 200,
           "--window", 5, "--negatives", 5, "--min-count", 2, "--epochs", 1, "--seed", SEED)
    return inputs, work


def _undo_placeholder(token, raw):
    """Put the raw text back in place of the first ``token`` of the output."""
    def edit(lines):
        i = next(n for n, line in enumerate(lines) if token in line.split(" "))
        lines[i] = lines[i].replace(token, raw, 1)
        return lines
    return edit


PREPROCESS_CORRUPTIONS = {
    "line dropped": lambda lines: lines[1:],
    "lines swapped": swap(0, 1),
    "mention left in": _undo_placeholder("xxatp", "@someone"),
    "url left in": _undo_placeholder("xxurl", "http://t.co/x"),
    "placeholder lost": set_line(0, lambda s: s + " xxatp"),
    "entity left in": set_line(2, lambda s: s + " &amp;"),
    "elongation kept": set_line(3, lambda s: s + " bahuuut"),
    "suffix not stripped": set_line(4, lambda s: s + " किताबों"),
    "tab inside a token": set_line(5, lambda s: s.replace(" ", "\t", 1)),
}


def test_preprocess_check_accepts_real_output(pretrain):
    inputs, work = pretrain
    assert checks.check_preprocess(work / "corpus.txt", inputs.expected["raw"],
                                   inputs.meta["planted"], preprocess) == []


@pytest.mark.parametrize("name", sorted(PREPROCESS_CORRUPTIONS))
def test_preprocess_check_rejects(pretrain, name, tmp_path):
    inputs, work = pretrain
    bad = corrupt(work / "corpus.txt", tmp_path / "corpus.txt", PREPROCESS_CORRUPTIONS[name])
    assert checks.check_preprocess(bad, inputs.expected["raw"], inputs.meta["planted"],
                                   preprocess)


def _shuffle_vectors(lines):
    rows = [line.split(" ", 1) for line in lines[1:-1]]
    vectors = [r[1] for r in rows]
    np.random.default_rng(0).shuffle(vectors)
    return lines[:1] + [f"{r[0]} {v}" for r, v in zip(rows, vectors)] + [""]


VECTOR_CORRUPTIONS = {
    "header count": set_line(0, lambda s: f"{int(s.split()[0]) + 1} 200"),
    "header dim": set_line(0, lambda s: f"{s.split()[0]} 100"),
    "nan value": set_line(3, lambda s: s.rsplit(" ", 1)[0] + " nan"),
    "row dropped": lambda lines: lines[:-2] + [""],
    "words reordered": swap(5, 6),
    "vectors shuffled across words": _shuffle_vectors,
}


def _vectors_problems(inputs, path):
    return checks.check_vectors(path, 200, inputs.expected["raw"], 2, inputs.meta["groups"])


def test_vectors_check_accepts_real_output(pretrain):
    inputs, work = pretrain
    assert _vectors_problems(inputs, work / "vectors.txt") == []


@pytest.mark.parametrize("name", sorted(VECTOR_CORRUPTIONS))
def test_vectors_check_rejects(pretrain, name, tmp_path):
    inputs, work = pretrain
    bad = corrupt(work / "vectors.txt", tmp_path / "vectors.txt", VECTOR_CORRUPTIONS[name])
    assert _vectors_problems(inputs, bad)


# -- train and predict ---------------------------------------------------------------

EPOCHS = 3


@pytest.fixture(scope="module")
def cnn(tmp_path_factory):
    """A small CNN over the full-size generated inputs; the checks read its shape."""
    work = tmp_path_factory.mktemp("cnn")
    inputs = gen.generate("cnn", SEED, work / "in")
    config = work / "cnn.json"
    config.write_text(json.dumps({
        "model": {"filter_counts": [8, 8, 16], "dense_units": 16, "m_max": 64},
        "dropout": {"input": 0.0, "bank3": 0.0, "bank4": 0.0, "bank5": 0.0, "dense": 0.0},
        "train": {"epochs": EPOCHS, "batch_size": 32, "lr": 0.003, "patience": EPOCHS},
        "val_fraction": 0.2}), encoding="utf-8")
    hofkit("train", "--config", config, "--data", inputs.files["labelled"], "--embeddings",
           inputs.files["vectors"], "--out", work / "model.ckpt", "--history",
           work / "history.tsv", "--seed", SEED)
    hofkit("predict", work / "model.ckpt", inputs.files["unlabelled"], "--embeddings",
           inputs.files["vectors"], "--out", work / "predictions.tsv")
    return inputs, work


def _train_problems(inputs, ckpt, history, seed=SEED):
    return checks.check_train(ckpt, history, EPOCHS, inputs.expected["labelled"],
                              inputs.meta["labels"], inputs.meta["vocab"], seed, 0.2)


def _set_field(line_index, column, value):
    def edit(lines):
        cells = lines[line_index].split("\t")
        cells[column] = value(cells[column])
        lines[line_index] = "\t".join(cells)
        return lines
    return edit


HISTORY_CORRUPTIONS = {
    "epoch missing": lambda lines: lines[:-2] + [""],
    "loss rises": _set_field(EPOCHS, 1, lambda s: "9.0"),
    "non-finite loss": _set_field(1, 1, lambda s: "nan"),
    "best f1 not the restored model's": _set_field(1, 2, lambda s: "0.999999"),
}


def test_train_check_accepts_real_output(cnn):
    inputs, work = cnn
    assert _train_problems(inputs, work / "model.ckpt", work / "history.tsv") == []


@pytest.mark.parametrize("name", sorted(HISTORY_CORRUPTIONS))
def test_train_check_rejects_history(cnn, name, tmp_path):
    inputs, work = cnn
    bad = corrupt(work / "history.tsv", tmp_path / "history.tsv", HISTORY_CORRUPTIONS[name])
    assert _train_problems(inputs, work / "model.ckpt", bad)


def _write_params(src: Path, dst: Path, edit) -> Path:
    manifest, params = checks.read_checkpoint(src)
    edit(params)
    head = src.read_bytes().split(b"\nend\n", 1)[0] + b"\nend\n"
    dst.write_bytes(head + b"".join(params[k].astype("<f4").tobytes()
                                    for k in checks.PARAM_ORDER))
    return dst


def test_train_check_rejects_other_weights(cnn, tmp_path):
    inputs, work = cnn
    bad = _write_params(work / "model.ckpt", tmp_path / "model.ckpt",
                        lambda p: p["out_b"].__setitem__(0, p["out_b"][0] + 5.0))
    assert _train_problems(inputs, bad, work / "history.tsv")


def test_train_check_rejects_other_split(cnn):
    inputs, work = cnn
    assert _train_problems(inputs, work / "model.ckpt", work / "history.tsv", seed=SEED + 1)


PREDICT_CORRUPTIONS = {
    "header": set_line(0, lambda s: "id\tlabel\tp"),
    "row dropped": lambda lines: lines[:-2] + [""],
    "rows swapped": swap(1, 2),
    "probability off": _set_field(3, 2, lambda s: f"{min(1.0, float(s) + 0.01):.6f}"
                                  if float(s) < 0.99 else f"{float(s) - 0.01:.6f}"),
    "label flipped": _set_field(4, 1, lambda s: "NOT" if s == "HOF" else "HOF"),
}


def _predict_problems(inputs, pred, ckpt):
    return checks.check_predict(pred, ckpt, inputs.meta["unl_ids"],
                                inputs.expected["unlabelled"], inputs.meta["vocab"])


def test_predict_check_accepts_real_output(cnn):
    inputs, work = cnn
    assert _predict_problems(inputs, work / "predictions.tsv", work / "model.ckpt") == []


@pytest.mark.parametrize("name", sorted(PREDICT_CORRUPTIONS))
def test_predict_check_rejects(cnn, name, tmp_path):
    inputs, work = cnn
    bad = corrupt(work / "predictions.tsv", tmp_path / "p.tsv", PREDICT_CORRUPTIONS[name])
    assert _predict_problems(inputs, bad, work / "model.ckpt")


def test_predict_check_rejects_other_weights(cnn, tmp_path):
    inputs, work = cnn
    bad = _write_params(work / "model.ckpt", tmp_path / "model.ckpt",
                        lambda p: p["dense_w"].__imul__(1.01))
    assert _predict_problems(inputs, work / "predictions.tsv", bad)


# -- baselines -------------------------------------------------------------------

GRIDS = {"mnb": {"alpha": [0.5]}, "ridge": {"lambda": [1.0]}, "knn": {"k": [4]},
         "dnn": {"epochs": [2], "lr": [0.04]}}
FOLDS = 3


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    work = tmp_path_factory.mktemp("baselines")
    inputs = gen.generate("baselines", SEED, work / "in")
    for family, grid in GRIDS.items():
        (work / f"{family}.json").write_text(json.dumps(grid), encoding="utf-8")
        hofkit("baseline", "--model", family, "--data", inputs.files["labelled"], "--grid",
               work / f"{family}.json", "--folds", FOLDS, "--seed", SEED,
               "--out", work / f"{family}.tsv")
    return inputs, work


def _baseline_problems(inputs, family, path, seed=SEED):
    return checks.check_baseline(path, family, GRIDS[family], inputs.expected["labelled"],
                                 inputs.meta["labels"], FOLDS, seed, 2)


def _shift_fold(delta):
    """Move fold 0's score and the mean together, so only the reference can notice."""
    def edit(lines):
        cells = lines[1].split("\t")
        cells[1] = f"{float(cells[1]) + delta:.6f}"
        cells[-2] = f"{float(cells[-2]) + delta / FOLDS:.6f}"
        lines[1] = "\t".join(cells)
        return lines
    return edit


@pytest.mark.parametrize("family", sorted(GRIDS))
def test_baseline_check_accepts_real_output(baselines, family):
    inputs, work = baselines
    assert _baseline_problems(inputs, family, work / f"{family}.tsv") == []


@pytest.mark.parametrize("family", ["mnb", "ridge", "knn"])
def test_baseline_check_rejects_wrong_fold_score(baselines, family, tmp_path):
    inputs, work = baselines
    bad = corrupt(work / f"{family}.tsv", tmp_path / "t.tsv", _shift_fold(-0.02))
    assert _baseline_problems(inputs, family, bad)


@pytest.mark.parametrize("family", ["mnb", "ridge", "knn"])
def test_baseline_check_rejects_other_folds(baselines, family):
    inputs, work = baselines
    assert _baseline_problems(inputs, family, work / f"{family}.tsv", seed=SEED + 1)


def test_baseline_check_rejects_other_family(baselines, tmp_path):
    inputs, work = baselines
    shutil.copy(work / "mnb.tsv", tmp_path / "knn.tsv")
    text = (tmp_path / "knn.tsv").read_text(encoding="utf-8").replace("alpha=0.5", "k=4")
    (tmp_path / "knn.tsv").write_text(text, encoding="utf-8")
    assert _baseline_problems(inputs, "knn", tmp_path / "knn.tsv")


DNN_CORRUPTIONS = {
    "score above 1": _set_field(1, 1, lambda s: "1.500000"),
    "mean not the fold mean": _set_field(1, -2, lambda s: f"{float(s) + 0.1:.6f}"),
    "best marker missing": _set_field(1, -1, lambda s: ""),
}


@pytest.mark.parametrize("name", sorted(DNN_CORRUPTIONS))
def test_dnn_check_rejects(baselines, name, tmp_path):
    inputs, work = baselines
    bad = corrupt(work / "dnn.tsv", tmp_path / "dnn.tsv", DNN_CORRUPTIONS[name])
    assert _baseline_problems(inputs, "dnn", bad)
