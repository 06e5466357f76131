"""Call tracing for hofkit's layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module, and
every public method of each public class, with a wrapper that records a span:
the function, its layer, its inclusive time, and the time its wrapped
children took. Spans are folded into per-(function, caller) totals as they
close, so memory stays flat however many calls a run makes.
``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("preprocess", "corpus", "embedding", "cnn", "baselines", "metrics", "cli")


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if getattr(getattr(module, n), "__module__", None) == module.__name__]


class Tracer:
    def __init__(self):
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stack: list[list] = []
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])  # (qualname, caller) -> n, incl, self
        self.busy = defaultdict(float)  # layer -> time in calls entered from another layer
        self.durations = defaultdict(list)
        self.counters = defaultdict(float)

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        tracer, hook = self, HOOKS.get(qualname)
        keep = qualname == FORWARD  # per-call latencies, for percentiles

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            caller = stack[-1] if stack else None
            frame = [qualname, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry = tracer.calls[(qualname, caller[0] if caller else None)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[2]
                if caller is None or caller[1] != layer:
                    tracer.busy[layer] += elapsed
                if caller is not None:
                    caller[2] += elapsed
                if keep:
                    tracer.durations[qualname].append(elapsed)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name.startswith("hofkit.") and m is not None]
        for layer in LAYERS:
            module = sys.modules[f"hofkit.{layer}"]
            for name in _public_names(module):
                obj = getattr(module, name)
                if inspect.isclass(obj):
                    self._install_methods(obj, layer)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                    # rebind every module-level alias, e.g. corpus.preprocess
                    for mod in package:
                        for attr, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, attr, wrapped)

    def _install_methods(self, cls, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, layer, qualname))
            elif inspect.isfunction(member):
                wrapped = self._wrap(member, layer, qualname)
            else:
                continue
            self._patch(cls, name, wrapped, member)

    def _patch(self, owner, attr: str, value, original=None) -> None:
        self._patches.append((owner, attr, original if original is not None
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------------

    def total(self, qualname: str, caller: str | None = ..., self_time: bool = False) -> float:
        """Inclusive (or self) seconds in ``qualname``, optionally only under ``caller``."""
        return sum(v[2 if self_time else 1] for (q, c), v in self.calls.items()
                   if q == qualname and (caller is ... or c == caller))

    def count(self, qualname: str) -> int:
        return sum(v[0] for (q, _), v in self.calls.items() if q == qualname)

    def outer_total(self, member) -> float:
        """Seconds in calls to functions ``member`` accepts, made from outside them."""
        return sum(v[1] for (q, c), v in self.calls.items()
                   if member(q) and not (c is not None and member(c)))


def _windows(tracer, args, result) -> None:
    corpus, cfg = args[0], args[2]
    # every position of a stream of 2+ tokens has a non-empty context window
    tracer.counters["embedding.windows"] += cfg.epochs * sum(
        len(ex.ids) for ex in corpus if len(ex.ids) >= 2)


def _largest_array(tracer, args, result) -> None:
    key = "baselines.dense_bow_bytes"
    tracer.counters[key] = max(tracer.counters[key], float(result.nbytes))


def _tokens(tracer, args, result) -> None:
    tracer.counters["preprocess.tokens"] += len(result)


def _vocab_size(tracer, args, result) -> None:
    vocab = result[1] if isinstance(result, tuple) else result
    tracer.counters["corpus.vocab_size"] = len(vocab)


HOOKS = {
    "preprocess.preprocess": _tokens,
    "corpus.build_vocab": _vocab_size,
    "embedding.load_text": _vocab_size,
    "embedding.train": _windows,
    "baselines.BowFeaturizer.matrix": _largest_array,
    "baselines.BowFeaturizer.dense": _largest_array,
}
FORWARD = "cnn.CnnModel.forward"


def _is_featurizer(qualname: str) -> bool:
    return qualname.startswith("baselines.BowFeaturizer.") or qualname == "baselines.featurize"


def _percentile_ms(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(t: Tracer) -> dict:
    """Per-layer figures of one traced round, keyed by benchmark metric name."""
    forward = t.durations[FORWARD]
    return {
        "preprocess.busy_s": t.busy["preprocess"],
        "preprocess.tweets": t.count("preprocess.preprocess"),
        "preprocess.tokens": t.counters["preprocess.tokens"],
        "corpus.load_tsv_self_s": t.total("corpus.load_tsv", self_time=True),
        "corpus.build_vocab_s": t.total("corpus.build_vocab"),
        "corpus.encode_s": t.outer_total(lambda q: q in ("corpus.encode", "corpus.encode_dataset")),
        "corpus.vocab_size": t.counters["corpus.vocab_size"],
        "embedding.train_s": t.total("embedding.train"),
        "embedding.windows": t.counters["embedding.windows"],
        "embedding.save_text_s": t.total("embedding.save_text"),
        "embedding.load_text_s": t.total("embedding.load_text"),
        "cnn.grads_s": t.total("cnn.CnnModel.batch_loss_grads"),
        "cnn.adam_s": t.total("cnn.Adam.step"),
        "cnn.masks_s": t.total("cnn.CnnModel.make_masks"),
        "cnn.val_predict_s": t.total("cnn.CnnModel.predict_batch", caller="cnn.train_model"),
        "cnn.steps": t.count("cnn.Adam.step"),
        "cnn.save_checkpoint_s": t.total("cnn.save_checkpoint"),
        "cnn.forward_s": t.total(FORWARD),
        "cnn.forward_calls": len(forward),
        "cnn.forward_p50_ms": _percentile_ms(forward, 0.50),
        "cnn.forward_p99_ms": _percentile_ms(forward, 0.99),
        "cnn.load_checkpoint_s": t.total("cnn.load_checkpoint"),
        "baselines.featurize_s": t.outer_total(_is_featurizer),
        "baselines.dense_bow_mib": t.counters["baselines.dense_bow_bytes"] / 2**20,
        "baselines.mnb_s": t.total("baselines.mnb_train") + t.total("baselines.mnb_predict"),
        "baselines.ridge_train_s": t.total("baselines.ridge_train"),
        "baselines.knn_predict_s": t.total("baselines.knn_predict"),
        "baselines.knn_queries": t.count("baselines.knn_predict"),
        "baselines.dnn_fit_s": t.total("baselines.DnnModel.fit"),
        "metrics.busy_s": t.busy["metrics"],
    }
