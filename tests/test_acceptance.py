"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np

from hofkit import baselines, cli, cnn, corpus, embedding, metrics
from hofkit.corpus import EncodedExample
from hofkit.seeding import derived_rng

from gradcheck import finite_difference, group_relative_error
from golden_cases import GOLDEN_CASES
from synthgen import (
    clique_margin,
    inject_noise,
    make_planted_trigram_dataset,
    two_clique_corpus,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- criterion 1: metrics oracle ----------------------------------------------


def test_criterion_1_metrics_oracle():
    t0 = time.perf_counter()
    r = metrics.report([[446, 159], [80, 633]])
    r2 = metrics.round2
    figures = {
        "HOF": (r2(r.per_class["HOF"].precision), r2(r.per_class["HOF"].recall),
                r2(r.per_class["HOF"].f1)),
        "NOT": (r2(r.per_class["NOT"].precision), r2(r.per_class["NOT"].recall),
                r2(r.per_class["NOT"].f1)),
        "accuracy": r2(r.accuracy),
        "macro": (r2(r.macro_avg.precision), r2(r.macro_avg.recall), r2(r.macro_avg.f1)),
        "weighted": (r2(r.weighted_avg.precision), r2(r.weighted_avg.recall),
                     r2(r.weighted_avg.f1)),
        "supports": (r.per_class["HOF"].support, r.per_class["NOT"].support,
                     r.macro_avg.support),
    }
    expected = {
        "HOF": (0.85, 0.74, 0.79),
        "NOT": (0.80, 0.89, 0.84),
        "accuracy": 0.82,
        "macro": (0.82, 0.81, 0.81),
        "weighted": (0.82, 0.82, 0.82),
        "supports": (605, 713, 1318),
    }
    elapsed = time.perf_counter() - t0
    ok = figures == expected and elapsed < 1.0
    _report(1, "metrics oracle", ok, f"{elapsed:.3f}s")


# -- criterion 2: gradient oracles --------------------------------------------


def _cnn_gradcheck(seed):
    rng = derived_rng(seed, "acc-cnn-grad")
    vocab_size, dim = 9, 8
    emb = rng.normal(0, 0.5, size=(vocab_size, dim))
    cfg = cnn.CnnConfig(
        embed_dim=dim, filter_counts=(2, 2, 4), dense_units=8, m_max=7,
        dropout=cnn.DropoutSpec(),
    )
    model = cnn.CnnModel.init(emb, cfg, seed=seed, dtype=np.float64)
    for key in cnn.PARAM_ORDER:
        if key.endswith("_b"):  # generic point: keep ReLUs off their kinks
            model.params[key] += rng.normal(0, 0.3, size=model.params[key].shape)
    batch = [
        EncodedExample(tuple(int(x) for x in rng.integers(1, vocab_size, size=s)), y)
        for s, y in ((6, 1), (3, 0), (7, 1))
    ]
    mask_rng = derived_rng(seed, "acc-cnn-masks")
    masks = model.make_masks([max(min(len(ex.ids), 7), 5) for ex in batch], mask_rng)
    _, grads = model.batch_loss_grads(batch, masks)
    worst = 0.0
    for key in cnn.PARAM_ORDER:
        skip = (corpus.PAD_ID,) if key == "emb" else ()
        fd = finite_difference(
            lambda: model.batch_loss(batch, masks), model.params[key], skip_rows=skip
        )
        worst = max(worst, group_relative_error(grads[key], fd))
    return worst


def _dnn_gradcheck(seed):
    rng = derived_rng(seed, "acc-dnn-grad")
    model = baselines.DnnModel(12, baselines.DnnConfig(seed=seed))
    for key in model.params:
        if key.startswith("b"):
            model.params[key] += rng.normal(0, 0.3, size=model.params[key].shape)
    xs = rng.normal(size=(3, 12))
    ys = [1, 0, 1]
    mask_rng = derived_rng(seed, "acc-dnn-masks")
    masks = model.make_masks(3, mask_rng)
    _, grads = model.batch_loss_grads(xs, ys, masks)
    worst = 0.0
    for key in sorted(model.params):
        fd = finite_difference(lambda: model.batch_loss(xs, ys, masks), model.params[key])
        worst = max(worst, group_relative_error(grads[key], fd))
    return worst


def test_criterion_2_gradient_oracles():
    t0 = time.perf_counter()
    worst_cnn = max(_cnn_gradcheck(seed) for seed in range(5))
    worst_dnn = max(_dnn_gradcheck(seed) for seed in range(5))
    elapsed = time.perf_counter() - t0
    ok = worst_cnn < 1e-3 and worst_dnn < 1e-3 and elapsed < 60.0
    _report(
        2, "gradient oracles", ok,
        f"cnn rel err {worst_cnn:.2e}, dnn rel err {worst_dnn:.2e}, {elapsed:.1f}s",
    )


# -- criterion 3: end-to-end synthetic classification --------------------------


def _train_scaled_cnn(ds, seed):
    vocab = corpus.build_vocab(ds.token_streams(), min_count=1)
    train_ds, val_ds = corpus.split_train_val(ds, 0.2, seed=seed)
    train_ex = corpus.encode_dataset(train_ds, vocab)
    val_ex = corpus.encode_dataset(val_ds, vocab)
    dim = 32
    emb = derived_rng(seed, "emb-init").uniform(-0.1, 0.1, size=(len(vocab), dim))
    cfg = cnn.CnnConfig(
        embed_dim=dim, filter_counts=(16, 16, 32), dense_units=32, m_max=64,
        dropout=cnn.DropoutSpec.none(),
    )
    model = cnn.CnnModel.init(emb, cfg, seed=seed)
    tcfg = cnn.TrainConfig(epochs=20, batch_size=8, lr=3e-3, patience=20, seed=seed)
    cnn.train_model(model, train_ex, val_ex, tcfg)
    return model, train_ex, val_ex


def test_criterion_3_end_to_end_synthetic():
    t0 = time.perf_counter()
    ds, _ = make_planted_trigram_dataset(2000, seed=13)
    assert sum(ex.label for ex in ds) == 1000  # 50/50 balance
    model, _, val_ex = _train_scaled_cnn(ds, seed=5)
    f1 = metrics.macro_f1(model.predict_batch(val_ex), [ex.label for ex in val_ex])
    elapsed = time.perf_counter() - t0
    ok = f1 >= 0.95 and elapsed < 300.0
    _report(3, "end-to-end synthetic", ok, f"held-out macro-F1 {f1:.4f}, {elapsed:.0f}s")


# -- criterion 4: CBOW two-clique property -------------------------------------


def test_criterion_4_cbow_two_clique():
    t0 = time.perf_counter()
    streams, cliques = two_clique_corpus(5000, seed=7)
    vocab = corpus.build_vocab(streams, min_count=2)
    encoded = [corpus.encode(s, vocab) for s in streams]
    cfg = embedding.EmbeddingConfig(dim=16, window=2, epochs=10)
    matrix = embedding.train(encoded, len(vocab), cfg, seed=11)
    margin = clique_margin(matrix, vocab, cliques)
    elapsed = time.perf_counter() - t0
    ok = margin >= 0.2 and elapsed < 60.0
    _report(4, "CBOW two-clique margin", ok, f"margin {margin:.3f}, {elapsed:.0f}s")


# -- criterion 5: CNN outperforms every baseline on the noisy task -------------


def test_criterion_5_model_ordering_under_noise():
    ds, _ = make_planted_trigram_dataset(2000, seed=13)
    noisy = inject_noise(ds, flip_fraction=0.10, substitute_fraction=0.20, seed=29)
    vocab = corpus.build_vocab(noisy.token_streams(), min_count=1)
    train_ds, val_ds = corpus.split_train_val(noisy, 0.2, seed=5)
    train_ex = corpus.encode_dataset(train_ds, vocab)
    val_ex = corpus.encode_dataset(val_ds, vocab)
    val_labels = [ex.label for ex in val_ex]

    dim = 32
    emb = derived_rng(5, "emb-init").uniform(-0.1, 0.1, size=(len(vocab), dim))
    cfg = cnn.CnnConfig(
        embed_dim=dim, filter_counts=(16, 16, 32), dense_units=32, m_max=64,
        dropout=cnn.DropoutSpec.none(),
    )
    model = cnn.CnnModel.init(emb, cfg, seed=5)
    cnn.train_model(
        model, train_ex, val_ex,
        cnn.TrainConfig(epochs=20, batch_size=8, lr=3e-3, patience=20, seed=5),
    )
    scores = {"cnn": metrics.macro_f1(model.predict_batch(val_ex), val_labels)}
    for family, params in (
        ("mnb", {"alpha": 1.0}),
        ("ridge", {"lambda": 1.0}),
        ("knn", {"k": 5}),
        ("dnn", {"epochs": 100, "lr": 0.04, "seed": 5}),
    ):
        f1s = baselines._fold_scores(family, [params], train_ex, val_ex, len(vocab), 0)
        scores[family] = f1s[0]
    ok = all(scores["cnn"] >= v for k, v in scores.items() if k != "cnn")
    detail = ", ".join(f"{k} {v:.3f}" for k, v in scores.items())
    _report(5, "noisy-task ordering", ok, detail)


# -- criterion 6: determinism and roundtrips -----------------------------------


def _cli_train_once(base, seed=11):
    base.mkdir(parents=True, exist_ok=True)
    rng = derived_rng(seed, "acc-cli-data")
    words = ["accha", "bura", "theek", "galat", "sahi", "kharab"]
    rows = ["text_id\ttext\ttask_1"]
    for i in range(24):
        label = "HOF" if i % 2 == 0 else "NOT"
        signal = "bura bura" if label == "HOF" else "accha accha"
        extra = " ".join(words[int(x)] for x in rng.integers(0, len(words), size=3))
        rows.append(f"t{i}\t{signal} {extra}\t{label}")
    data = base / "train.tsv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    tokens = base / "corpus.txt"
    assert cli.main(["preprocess", str(data), str(tokens)]) == 0
    vectors = base / "vectors.txt"
    assert cli.main(
        ["embed-train", str(tokens), "--out", str(vectors), "--dim", "8",
         "--window", "2", "--min-count", "1", "--epochs", "2", "--seed", str(seed)]
    ) == 0
    config = base / "config.json"
    config.write_text(
        json.dumps(
            {
                "model": {"filter_counts": [2, 2, 4], "dense_units": 8, "m_max": 16},
                "train": {"epochs": 2, "batch_size": 8, "patience": 2},
            }
        ),
        encoding="utf-8",
    )
    ckpt = base / "model.ckpt"
    history = base / "history.tsv"
    assert cli.main(
        ["train", "--config", str(config), "--data", str(data),
         "--embeddings", str(vectors), "--out", str(ckpt),
         "--history", str(history), "--seed", str(seed)]
    ) == 0
    return vectors, ckpt, history


def test_criterion_6_determinism_and_roundtrips(tmp_path):
    vec_a, ckpt_a, hist_a = _cli_train_once(tmp_path / "a")
    vec_b, ckpt_b, hist_b = _cli_train_once(tmp_path / "b")
    identical = (
        hist_a.read_bytes() == hist_b.read_bytes()
        and ckpt_a.read_bytes() == ckpt_b.read_bytes()
    )

    model = cnn.load_checkpoint(ckpt_a)
    reck = tmp_path / "resaved.ckpt"
    cnn.save_checkpoint(model, reck, "")
    reloaded = cnn.load_checkpoint(reck)
    binary_exact = all(
        np.array_equal(model.params[k], reloaded.params[k]) for k in cnn.PARAM_ORDER
    )

    matrix, vocab = embedding.load_text(vec_a)
    revec = tmp_path / "resaved_vectors.txt"
    embedding.save_text(matrix, vocab, revec)
    matrix2, vocab2 = embedding.load_text(revec)
    text_close = (
        vocab2.words == vocab.words
        and float(np.abs(matrix2.w_in - matrix.w_in).max()) <= 1e-6
    )

    ok = identical and binary_exact and text_close
    _report(
        6, "determinism and roundtrips", ok,
        f"run-identical={identical}, binary-exact={binary_exact}, text<=1e-6={text_close}",
    )


# -- criterion 7: preprocessing golden suite ------------------------------------


def test_criterion_7_preprocessing_golden_suite():
    from hofkit.preprocess import preprocess

    failures = [
        (text, expected, preprocess(text))
        for text, expected in GOLDEN_CASES
        if preprocess(text) != expected
    ]
    ok = len(GOLDEN_CASES) >= 30 and not failures
    _report(
        7, "preprocessing golden suite", ok,
        f"{len(GOLDEN_CASES)} cases, {len(failures)} mismatches",
    )


# -- criterion 8: split and cross-validation arithmetic -------------------------


def test_criterion_8_split_and_cv_arithmetic():
    ds = corpus.Dataset(
        [corpus.Example(f"t{i}", ("tok",), i % 2) for i in range(4665)]
    )
    train, val = corpus.split_train_val(ds, 0.2, seed=1)
    support_ok = len(val) == 933 and len(train) == 3732

    parts = corpus.kfold(4665, 10, seed=1)
    seen = sorted(i for _, test in parts for i in test)
    sizes = [len(test) for _, test in parts]
    fold_ok = (
        seen == list(range(4665))
        and max(sizes) - min(sizes) <= 1
        and all(not set(tr) & set(te) for tr, te in parts)
        and all(len(tr) + len(te) == 4665 for tr, te in parts)
    )
    ok = support_ok and fold_ok
    _report(
        8, "split/CV arithmetic", ok,
        f"val support {len(val)}, fold sizes {sorted(set(sizes))}",
    )
