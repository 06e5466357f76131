"""Command-line front door for the tweet classification pipeline.

Subcommands: preprocess | embed-train | train | eval | predict | cv | baseline.
Every command exits 0 on success and 1 with a single ``error: ...`` line on
stderr otherwise. All randomness flows from the ``--seed`` flag through
purpose-tagged derived streams, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import fields, replace

from . import baselines, cnn, corpus, embedding
from .fileio import atomic_open, utf8_line_errors
from .metrics import (
    confusion,
    confusion_to_tsv,
    format_report,
    macro_f1,
    report,
    report_to_json,
)
from .preprocess import load_suffix_table
from .seeding import derived_seeds


# Config sections and the dataclass each one sets; a key's kind is the type of
# its field's default. ``model.dropout`` is the dropout section and
# ``train.seed`` follows the run's seed, so neither is a key of the file.
_SECTIONS = {
    "model": cnn.CnnConfig,
    "dropout": cnn.DropoutSpec,
    "train": cnn.TrainConfig,
    "embedding": embedding.EmbeddingConfig,
}
_KINDS = {
    section: {f.name: type(f.default) for f in fields(cls) if f.name not in ("dropout", "seed")}
    for section, cls in _SECTIONS.items()
}
# The kind of each top-level key; a section's kind is ``dict``.
_TOP_LEVEL = {
    "seed": int, "val_fraction": float, "folds": int, "stratify": bool,
    **dict.fromkeys(("data", "embeddings", "checkpoint", "history", "suffixes"), str),
    **dict.fromkeys(_SECTIONS, dict),
}
# The JSON values each kind takes, and how a message names them.
_JSON_KINDS = {
    str: (str, "a string"),
    bool: (bool, "true or false"),
    tuple: (list, "a list of numbers"),
    **dict.fromkeys((int, float), ((int, float), "a number")),
}


def _load_config(path) -> dict:
    """Read a JSON config, converting each value to the kind of its key.

    The top level holds the keys of ``_TOP_LEVEL``; each section holds fields
    of its dataclass in ``_SECTIONS``. Every key and value is checked here,
    whichever command runs: an unknown section or key is rejected, a number
    must be a JSON number (never a string or a boolean), a whole number takes
    no fraction, and ``model.filter_counts`` is a list of whole numbers. Each
    section's dataclass is then built from the file's values alone, so its
    range checks run too, and a flag cannot rescue a bad file value. The
    result holds every section as converted values, empty where the file has
    none; the dataclasses give the defaults.
    """
    config = {section: {} for section in _SECTIONS}
    if path is None:
        return config
    values = _read_json(path, "config")
    if not isinstance(values, dict):
        raise ValueError(f"config {path}: top level must be a JSON object")
    config = {**config, **_convert_keys(path, values, _TOP_LEVEL)}
    for section, cls in _SECTIONS.items():
        try:
            cls(**config[section])
        except ValueError as exc:
            raise ValueError(f"config {path}: {exc}") from None
    return config


def _read_json(path, kind: str):
    """The JSON value in the file ``path``.

    A byte that is not UTF-8 (named with its line) or malformed JSON raises one
    ValueError that begins ``<kind> <path>: ``.
    """
    try:
        with open(path, encoding="utf-8") as fh, utf8_line_errors(path):
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError is one
        raise ValueError(f"{kind} {path}: {exc}") from None


def _convert_keys(path, values: dict, kinds: dict, section: str = "") -> dict:
    """``values`` with each value converted to the kind ``kinds`` gives its key."""
    converted = {}
    for key, value in values.items():
        name = f"{section}.{key}" if section else key
        if key not in kinds:
            raise ValueError(
                f"config {path}: {name} is not a config key "
                f"({section or 'the top level'} takes {', '.join(kinds)})"
            )
        converted[key] = _convert(path, name, value, kinds[key])
    return converted


def _convert(path, name: str, value, kind):
    """``value`` as ``kind``: a section, a string, a boolean, a tuple of ints or a number.

    A number is a JSON number other than a boolean. An ``int`` takes no inf,
    NaN or fraction, where ``int`` would drop it, and a ``float`` no int past
    the float range.
    """
    if kind is dict:
        if not isinstance(value, dict):
            raise ValueError(f"config {path}: section {name!r} must be a JSON object")
        return _convert_keys(path, value, _KINDS[name], name)
    json_kind, expected = _JSON_KINDS[kind]
    if not isinstance(value, json_kind):
        raise ValueError(f"config {path}: {name} must be {expected}, got {json.dumps(value)}")
    if kind in (str, bool):
        return value
    if kind is tuple:
        return tuple(_convert(path, name, v, int) for v in value)
    if isinstance(value, bool):  # isinstance took it for an int
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    try:
        number = kind(value)
    except (OverflowError, ValueError):
        raise ValueError(f"{name} must be a finite number, got {json.dumps(value)}") from None
    if kind is int and number != value:
        raise ValueError(f"{name} must be a whole number, got {json.dumps(value)}")
    return number


def _require_seed(args, config) -> int:
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is None:
        raise ValueError("a seed is required (--seed or config key 'seed')")
    if seed < 0:
        raise ValueError(f"seed must be a whole number >= 0, got {seed}")
    return seed


def _pick(args_value, config: dict, key: str, default):
    """Flag value wins over config file value wins over default."""
    if args_value is not None:
        return args_value
    return config.get(key, default)


def _flags(args, cls) -> dict:
    """The flags of ``args`` that set a field of ``cls``, where given."""
    given = ((f.name, getattr(args, f.name, None)) for f in fields(cls))
    return {name: value for name, value in given if value is not None}


def _load_tsv(path, args, config, unlabelled=None) -> corpus.Dataset:
    """The tweets of ``path``, stemmed with the run's suffix table.

    Where ``unlabelled`` is given, a row without a label raises it as the error.
    """
    suffixes = _pick(args.suffixes, config, "suffixes", None)
    ds = corpus.load_tsv(path, load_suffix_table(suffixes) if suffixes else None)
    if unlabelled and any(ex.label is None for ex in ds):
        raise ValueError(unlabelled)
    return ds


def _write_table(lines, path) -> None:
    """Print the table of ``lines``, and write it to ``path`` where given."""
    table = "\n".join(lines)
    if path:
        with atomic_open(path) as fh:
            fh.write(table + "\n")
    print(table)


def cmd_preprocess(args, config) -> int:
    ds = _load_tsv(args.input, args, config)
    with atomic_open(args.output) as fh:
        for ex in ds:
            fh.write(" ".join(ex.tokens) + "\n")
    print(f"wrote {len(ds)} token streams to {args.output}")
    return 0


def cmd_embed_train(args, config) -> int:
    seed = _require_seed(args, config)
    flags = _flags(args, embedding.EmbeddingConfig)
    cfg = embedding.EmbeddingConfig(**{**config["embedding"], **flags})
    streams = corpus.load_token_lines(args.corpus)
    vocab = corpus.build_vocab(streams, cfg.min_count)
    encoded = [corpus.encode(s, vocab) for s in streams]
    matrix = embedding.train(encoded, len(vocab), cfg, seed)
    embedding.save_text(matrix, vocab, args.out)
    if args.vocab_out:
        vocab.save(args.vocab_out)
    print(f"trained {len(vocab)}x{cfg.dim} vectors over {len(streams)} streams")
    return 0


def _fit_setup(args, config, needs: str, unlabelled: str, *required):
    """The seed, tweets, vectors and model and training configs of ``train`` and ``cv``.

    ``needs`` is the error when the data, the vectors or any of ``required``
    is not given; ``unlabelled`` is the error for a row without a label.
    """
    seed = _require_seed(args, config)
    data_path = _pick(args.data, config, "data", None)
    emb_path = _pick(args.embeddings, config, "embeddings", None)
    if not all((data_path, emb_path, *required)):
        raise ValueError(needs)
    ds = _load_tsv(data_path, args, config, unlabelled)
    matrix, vocab = embedding.load_text(emb_path)
    model = config["model"]
    if model.get("embed_dim", matrix.dim) != matrix.dim:
        raise ValueError(
            f"config embed_dim {model['embed_dim']} does not match the "
            f"embeddings file dim {matrix.dim}"
        )
    dropout = cnn.DropoutSpec(**config["dropout"])
    model_cfg = cnn.CnnConfig(**{"embed_dim": matrix.dim, **model}, dropout=dropout)
    train_cfg = cnn.TrainConfig(**{**config["train"], **_flags(args, cnn.TrainConfig), "seed": seed})
    return seed, ds, matrix, vocab, model_cfg, train_cfg


def _train_val(ds, vocab, config, seed):
    """``ds`` split as the config says, each part encoded with ``vocab``."""
    val_fraction = config.get("val_fraction", 0.2)
    stratify = config.get("stratify", False)
    parts = corpus.split_train_val(ds, val_fraction, seed, stratify)
    return [corpus.encode_dataset(part, vocab) for part in parts]


def _write_history(path, history) -> None:
    with atomic_open(path) as fh:
        fh.write("epoch\ttrain_loss\tval_macro_f1\n")
        for epoch, loss, f1 in history:
            fh.write(f"{epoch}\t{loss:.6f}\t{f1:.6f}\n")


def cmd_train(args, config) -> int:
    out_path = _pick(args.out, config, "checkpoint", None)
    seed, ds, matrix, vocab, model_cfg, train_cfg = _fit_setup(
        args, config, "train needs --data, --embeddings, and --out",
        "training data must be fully labelled", out_path,
    )
    history_path = _pick(args.history, config, "history", out_path + ".history.tsv")
    train_ex, val_ex = _train_val(ds, vocab, config, seed)

    model = cnn.CnnModel.init(matrix.w_in, model_cfg, seed)
    del matrix  # the model holds its own copy of the table, in its own dtype
    history = cnn.train_model(model, train_ex, val_ex, train_cfg)
    _write_history(history_path, history)
    cnn.save_checkpoint(model, out_path, cnn.vocab_hash(vocab))
    best = max(h[2] for h in history)
    print(
        f"trained {len(history)} epochs on {len(train_ex)} examples; "
        f"best val macro-F1 {best:.4f}; checkpoint {out_path}"
    )
    return 0


def _load_model_and_vocab(args):
    vocab = embedding.load_words(args.embeddings)
    with warnings.catch_warnings(record=True) as held:  # a size mismatch is the one error line
        model = cnn.load_checkpoint(args.checkpoint, vocab)
    if model.params["emb"].shape[0] != len(vocab):
        raise ValueError(
            f"checkpoint vocabulary size {model.params['emb'].shape[0]} does not "
            f"match embeddings file ({len(vocab)} words)"
        )
    for warning in held:
        print(f"warning: {warning.message}", file=sys.stderr)
    return model, vocab


def cmd_eval(args, config) -> int:
    model, vocab = _load_model_and_vocab(args)
    ds = _load_tsv(args.data, args, config, "test set is unlabelled; use the predict command")
    encoded = corpus.encode_dataset(ds, vocab)
    cm = confusion(model.predict_batch(encoded), [ex.label for ex in encoded])
    rep = report(cm)
    print(confusion_to_tsv(cm))
    print(format_report(rep))
    print(report_to_json(rep))
    return 0


def cmd_predict(args, config) -> int:
    model, vocab = _load_model_and_vocab(args)
    ds = _load_tsv(args.data, args, config)
    probs = model.predict_proba([ex.ids for ex in corpus.encode_dataset(ds, vocab)])
    with atomic_open(args.out) as fh:
        fh.write("id\tlabel\tprobability\n")
        for ex, p in zip(ds, probs):
            label = corpus.ID_TO_LABEL[1 if p >= 0.5 else 0]
            fh.write(f"{ex.tweet_id}\t{label}\t{p:.6f}\n")
    print(f"wrote {len(ds)} predictions to {args.out}")
    return 0


def cmd_cv(args, config) -> int:
    seed, ds, matrix, vocab, model_cfg, train_cfg = _fit_setup(
        args, config, "cv needs --data and --embeddings",
        "cross-validation data must be fully labelled",
    )
    encoded = corpus.encode_dataset(ds, vocab)
    scores = []
    lines = ["fold\tmacro_f1"]
    partitions = corpus.kfold(len(ds), _pick(args.folds, config, "folds", 10), seed)
    fold_seeds = derived_seeds(seed, "cv-fold", len(partitions))
    table = cnn.embedding_table(matrix.w_in)  # each fold copies this one, not the float64 table
    del matrix
    for fold_i, ((train_idx, test_idx), fold_seed) in enumerate(zip(partitions, fold_seeds)):
        train_ex, val_ex = _train_val(ds.subset(train_idx), vocab, config, fold_seed)
        model = cnn.CnnModel.init(table, model_cfg, fold_seed)
        cnn.train_model(model, train_ex, val_ex, replace(train_cfg, seed=fold_seed))
        test_ex = [encoded[i] for i in test_idx]
        preds = model.predict_batch(test_ex)
        score = macro_f1(preds, [ex.label for ex in test_ex])
        scores.append(score)
        lines.append(f"{fold_i}\t{score:.6f}")
    lines.append(f"mean\t{sum(scores) / len(scores):.6f}")
    _write_table(lines, args.out)
    return 0


def cmd_baseline(args, config) -> int:
    seed = _require_seed(args, config)
    data_path = _pick(args.data, config, "data", None)
    if not data_path:
        raise ValueError("baseline needs --data")
    ds = _load_tsv(data_path, args, config, "baseline data must be fully labelled")
    vocab = corpus.build_vocab(ds.token_streams(), args.min_count)
    encoded = corpus.encode_dataset(ds, vocab)

    grid = _read_json(args.grid, "grid") if args.grid else baselines.DEFAULT_GRIDS[args.model]
    folds = _pick(args.folds, config, "folds", 10)
    result = baselines.grid_search(args.model, grid, encoded, len(vocab), folds=folds, seed=seed)

    k = len(result.rows[0][1])
    lines = ["\t".join(["params", *(f"fold_{i}" for i in range(k)), "mean", "best"])]
    for i, (params, scores, mean) in enumerate(result.rows):
        pstr = ",".join(f"{key}={params[key]}" for key in params)
        best = "*" if i == result.best_index else ""
        lines.append("\t".join([pstr, *(f"{s:.6f}" for s in scores), f"{mean:.6f}", best]))
    _write_table(lines, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call.

    Parsing leaves the parser unchanged, so reusing it saves rebuilding some
    500 argparse objects (and their reference cycles) per command. Each flag
    that several subcommands take is defined once, in a parent parser.
    """
    parser = argparse.ArgumentParser(
        prog="hofkit",
        description="Hate/offensive tweet classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flag_set = functools.partial(argparse.ArgumentParser, add_help=False)
    config = flag_set()
    config.add_argument("--config")

    def tweets(suffixes_help=None):  # every command that reads a tweet TSV
        flags = flag_set(parents=[config])
        flags.add_argument("--suffixes", help=suffixes_help)
        return flags

    tsv = tweets()
    fit = flag_set(parents=[tsv])  # train and cv
    fit.add_argument("--data")
    fit.add_argument("--embeddings")
    fit.add_argument("--epochs", type=int)
    fit.add_argument("--batch-size", type=int, dest="batch_size")
    fit.add_argument("--lr", type=float)
    fit.add_argument("--patience", type=int)
    fit.add_argument("--seed", type=int)
    fit.add_argument("--out")

    scoring = flag_set(parents=[tsv])  # eval and predict
    scoring.add_argument("checkpoint")
    scoring.add_argument("data")
    scoring.add_argument("--embeddings", required=True)

    p = sub.add_parser("preprocess", parents=[tweets("custom stemmer suffix table")],
                       help="normalize a tweet TSV into token lines")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("embed-train", parents=[config], help="train word vectors on token lines")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--min-count", type=int, dest="min_count")
    p.add_argument("--epochs", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--lr", type=float, dest="initial_lr")
    p.add_argument("--objective", choices=["cbow", "skipgram"])
    p.add_argument("--seed", type=int)
    p.add_argument("--vocab-out", dest="vocab_out")
    p.set_defaults(func=cmd_embed_train)

    p = sub.add_parser("train", parents=[fit], help="train the convolutional classifier")
    p.add_argument("--history")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[scoring], help="report metrics on a labelled TSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", parents=[scoring], help="write id/label/probability TSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", parents=[fit], help="k-fold cross-validation of the classifier")
    p.add_argument("--folds", type=int)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("baseline", parents=[tsv], help="grid-search a baseline family")
    p.add_argument("--model", required=True, choices=list(baselines.BASELINE_FAMILIES))
    p.add_argument("--data")
    p.add_argument("--grid", help="JSON file: parameter name -> list of values")
    p.add_argument("--folds", type=int)
    p.add_argument("--min-count", type=int, dest="min_count", default=2)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except (ValueError, OSError, RuntimeError, KeyError, json.JSONDecodeError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
