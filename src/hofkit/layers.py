"""Dense layers, inverted dropout and the minibatch epoch loop.

Shared by the CNN's head (one dense ReLU layer, then one sigmoid logit) and
the DNN baseline (five dense ReLU layers, then two softmax logits). A stack
is a list of ``(w, b)`` pairs applied as ``a @ w + b``; ReLU follows every
layer but the last, whose output is the logits. ``masks`` maps a layer index
to the dropout mask multiplied into that layer's input, one row per example;
layers without an entry are not masked, and inference passes ``{}``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["dropout_mask", "dense_forward", "dense_backward", "run_epoch"]


def dropout_mask(size, rate: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout mask: 0 where a unit drops, 1/keep where it survives."""
    dtype = np.dtype(dtype)
    keep = 1.0 - rate
    return (rng.random(size) < keep).astype(dtype) / dtype.type(keep)


def dense_forward(x: np.ndarray, layers: list, masks: dict) -> tuple:
    """Run rows of ``x`` through the stack.

    Returns ``(acts, zs)``: the masked input and the pre-activation of each
    layer; ``zs[-1]`` holds the logits.
    """
    acts, zs = [], []
    a = x
    for i, (w, b) in enumerate(layers):
        if i:
            a = np.maximum(zs[-1], 0.0)
        if i in masks:
            a = a * masks[i]
        acts.append(a)
        zs.append(a @ w + b)
    return acts, zs


def dense_backward(delta: np.ndarray, layers: list, acts: list, zs: list, masks: dict) -> tuple:
    """Gradients of the stack from d(loss)/d(logits).

    Returns ``([(dw, db) per layer], d(loss)/d(input))``, the input being the
    unmasked ``x`` given to ``dense_forward``.
    """
    grads = []
    for i in reversed(range(len(layers))):
        grads.insert(0, (acts[i].T @ delta, delta.sum(axis=0)))
        da = delta @ layers[i][0].T
        if i in masks:
            da = da * masks[i]
        if i:
            delta = da * (zs[i - 1] > 0)
    return grads, da


def run_epoch(
    n: int,
    batch_size: int,
    rng: np.random.Generator,
    loss_grads: Callable,
    step: Callable,
    epoch: int,
) -> float:
    """One pass over ``n`` examples in a fresh shuffled order, in minibatches.

    ``loss_grads(idx)`` returns the mean loss over the examples at positions
    ``idx`` and its gradients, and ``step(grads)`` applies them. The loss is
    checked before each step, so overflow on the way to a non-finite loss is
    reported once, as a RuntimeError naming the 1-based ``epoch``, instead of
    as NumPy warnings. Returns the example-weighted mean loss of the epoch.
    """
    order = rng.permutation(n)
    running = 0.0
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = loss_grads(idx)
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
            step(grads)
        running += loss * len(idx)
    return running / n
