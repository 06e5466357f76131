"""hofkit benchmark: one workload, one seed, one measuring time.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from the seed, runs the workload in a fresh
process (``workload.py``), checks every output against references computed
here (``checks.py``), and prints the metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` gives the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics. See README.md for what each measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
BLAS_THREADS = 1  # steadier than two threads on a shared 2-core machine
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150

EMBED_EPOCHS = 1
CNN_EPOCHS = 2
VAL_FRACTION = 0.2
FOLDS = 3
MIN_COUNT = 2
GRIDS = {
    "mnb": {"alpha": [0.5, 1.0]},
    "ridge": {"lambda": [1.0, 10.0]},
    "knn": {"k": [3, 4]},  # an even k exercises the vote tie rule
    "dnn": {"epochs": [3], "lr": [0.04]},
}
# per-command rate names, reported by the cli layer in traced runs
RATE_NAMES = {
    "preprocess": "preprocess_tweets_per_s", "embed-train": "embed_windows_per_s",
    "train": "train_examples_per_s", "predict": "predict_tweets_per_s",
    "mnb": "mnb_folds_per_s", "ridge": "ridge_folds_per_s",
    "knn": "knn_folds_per_s", "dnn": "dnn_folds_per_s",
}


@dataclass
class Op:
    """One hofkit command of a round: its argv, its work units and its check."""

    name: str
    argv: list
    outputs: list  # files the command writes in the round directory
    units: int  # work per command: tweets, windows x epochs, examples x epochs, folds
    role: str  # "fit" or "apply", the end-to-end rate it counts towards
    check: Callable  # round directory -> list of problems


def plan_pretrain(inputs, work: Path, seed: int) -> list[Op]:
    from hofkit.preprocess import preprocess  # only for the fixed-point property

    streams = inputs.expected["raw"]
    windows = sum(len(s) for s in streams if len(s) >= 2)
    return [
        Op("preprocess", ["preprocess", str(inputs.files["raw"]), "{round}/corpus.txt"],
           ["corpus.txt"], len(streams), "apply",
           lambda d: checks.check_preprocess(d / "corpus.txt", streams,
                                             inputs.meta["planted"], preprocess)),
        Op("embed-train",
           ["embed-train", "{round}/corpus.txt", "--out", "{round}/vectors.txt", "--dim", "200",
            "--window", "5", "--negatives", "5", "--min-count", str(MIN_COUNT),
            "--epochs", str(EMBED_EPOCHS), "--objective", "cbow", "--seed", str(seed)],
           ["vectors.txt"], windows * EMBED_EPOCHS, "fit",
           lambda d: checks.check_vectors(d / "vectors.txt", 200, streams, MIN_COUNT,
                                          inputs.meta["groups"])),
    ]


def plan_cnn(inputs, work: Path, seed: int) -> list[Op]:
    config = work / "cnn.json"
    config.write_text(json.dumps({
        "model": {"filter_counts": [256, 256, 512], "dense_units": 256, "m_max": 64},
        "dropout": {"input": 0.5, "bank3": 0.5, "bank4": 0.2, "bank5": 0.2, "dense": 0.5},
        # patience equal to the epoch count: early stopping never cuts a run short
        "train": {"epochs": CNN_EPOCHS, "batch_size": 32, "lr": 0.001, "patience": CNN_EPOCHS},
        "val_fraction": VAL_FRACTION,
    }), encoding="utf-8")
    lab, unl = inputs.expected["labelled"], inputs.expected["unlabelled"]
    vocab, vectors = inputs.meta["vocab"], str(inputs.files["vectors"])
    n_train = len(lab) - round(VAL_FRACTION * len(lab))
    return [
        Op("train", ["train", "--config", str(config), "--data", str(inputs.files["labelled"]),
                     "--embeddings", vectors, "--out", "{round}/model.ckpt",
                     "--history", "{round}/history.tsv", "--seed", str(seed)],
           ["model.ckpt", "history.tsv"], n_train * CNN_EPOCHS, "fit",
           lambda d: checks.check_train(d / "model.ckpt", d / "history.tsv", CNN_EPOCHS, lab,
                                        inputs.meta["labels"], vocab, seed, VAL_FRACTION)),
        Op("predict", ["predict", "{round}/model.ckpt", str(inputs.files["unlabelled"]),
                       "--embeddings", vectors, "--out", "{round}/predictions.tsv"],
           ["predictions.tsv"], len(unl), "apply",
           lambda d: checks.check_predict(d / "predictions.tsv", d / "model.ckpt",
                                          inputs.meta["unl_ids"], unl, vocab)),
    ]


def plan_baselines(inputs, work: Path, seed: int) -> list[Op]:
    streams, labels = inputs.expected["labelled"], inputs.meta["labels"]
    ops = []
    for family, grid in GRIDS.items():
        grid_path = work / f"{family}.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        points = math.prod(len(values) for values in grid.values())
        ops.append(Op(
            family,
            ["baseline", "--model", family, "--data", str(inputs.files["labelled"]),
             "--grid", str(grid_path), "--folds", str(FOLDS), "--min-count", str(MIN_COUNT),
             "--seed", str(seed), "--out", f"{{round}}/{family}.tsv"],
            [f"{family}.tsv"], points * FOLDS, "apply" if family == "knn" else "fit",
            lambda d, family=family, grid=grid: checks.check_baseline(
                d / f"{family}.tsv", family, grid, streams, labels, FOLDS, seed, MIN_COUNT)))
    return ops


PLANS = {"pretrain": plan_pretrain, "cnn": plan_cnn, "baselines": plan_baselines}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], log: Path, timeout: float) -> subprocess.CompletedProcess:
    """Run a workload.py process; ``--spawned-at`` lets it time its own set-up."""
    argv = [sys.executable, str(HERE / "workload.py"), "--spawned-at", repr(time.monotonic())]
    with open(log, "ab") as err:
        return subprocess.run(argv + args, stdout=subprocess.PIPE, stderr=err,
                              env=child_env(), timeout=timeout, check=False)


def verdicts(ops: list[Op], rounds: list[dict], work: Path) -> list[list[bool]]:
    """Per round and op: passed? Round 0's files are checked; later rounds must match them."""
    first = rounds[0]["ops"]
    first_ok = []
    for op, result in zip(ops, first):
        if result["rc"] != 0:
            problems = [f"exit code {result['rc']}"]
        else:
            try:
                problems = op.check(work / "rounds" / "r0")
            except Exception as exc:  # output too malformed for the check to read
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        for message in problems:
            print(f"check failed: {op.name}: {message}", file=sys.stderr)
        first_ok.append(not problems)
    out = []
    for index, record in enumerate(rounds):
        row = []
        for i, result in enumerate(record["ops"]):
            same = result["hashes"] == first[i]["hashes"]
            if index and not same:
                print(f"check failed: {ops[i].name}: round {index} output differs from round 0",
                      file=sys.stderr)
            row.append(result["rc"] == 0 and first_ok[i] and same)
        out.append(row)
    return out


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def pooled_rate(ops, rounds, passed, picked) -> float:
    """Units per second of wall time over the untraced rounds of the commands ``picked`` accepts.

    Pooling every round, rather than taking a median of per-round rates,
    averages over the host's slow and fast phases, which last seconds.
    """
    units = seconds = 0.0
    for record, ok in zip(rounds, passed):
        for op, result, good in zip(ops, record["ops"], ok):
            if good and picked(op) and not record["traced"]:
                units += op.units
                seconds += result["seconds"]
    return units / seconds if seconds else 0.0


def command_rates(ops, rounds, passed) -> dict:
    """Each command's own rate, under the names of RATE_NAMES."""
    return {RATE_NAMES[op.name]: pooled_rate(ops, rounds, passed, lambda o, op=op: o is op)
            for op in ops}


def end_to_end(ops, report, passed, setups) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": report["peak_rss_mib"],
        "fit_per_s": pooled_rate(ops, report["rounds"], passed, lambda op: op.role == "fit"),
        "apply_per_s": pooled_rate(ops, report["rounds"], passed,
                                   lambda op: op.role == "apply"),
    }


def per_layer(ops, report, passed) -> dict:
    rounds = report["rounds"]
    traced = [r for r in rounds if r["traced"]]
    metrics = {name: median_or_zero(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    # commands this workload does not run read 0
    for name, rate in RATE_NAMES.items():
        metrics[f"cli.{rate}"] = 0.0
        metrics[f"cli.{name.replace('-', '_')}_s"] = 0.0
    metrics.update({f"cli.{rate}": value
                    for rate, value in command_rates(ops, rounds, passed).items()})
    for i, op in enumerate(ops):
        metrics[f"cli.{op.name.replace('-', '_')}_s"] = median_or_zero(
            r["ops"][i]["seconds"] for r in traced)
    round_s = [sum(o["seconds"] for o in r["ops"]) for r in rounds]
    metrics["cli.trace_overhead_pct"] = 100.0 * (
        median_or_zero(s for s, r in zip(round_s, rounds) if r["traced"])
        / median_or_zero(s for s, r in zip(round_s, rounds) if not r["traced"]) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hofkit" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: no hofkit source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    log = work / "workload.log"
    try:
        inputs = gen.generate(args.workload, args.seed, work / "inputs")
        ops = PLANS[args.workload](inputs, work, args.seed)
        plan = {"rounds_dir": str(work / "rounds"),
                "ops": [{"name": op.name, "argv": op.argv, "outputs": op.outputs} for op in ops]}
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

        setups = []
        for _ in range(SETUP_PROBES):
            probe = spawn(["--probe"], log, 60)
            if probe.returncode != 0:
                print(f"error: set-up probe failed, see {log}", file=sys.stderr)
                return 1
            setups.append(json.loads(probe.stdout)["setup_s"])
        report_path = work / "report.json"
        child = spawn(["--plan", str(work / "plan.json"), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--report", str(report_path)],
                      log, CHILD_TIMEOUT_S)
        if child.returncode != 0:
            print(f"error: workload process exited {child.returncode}, see {log}",
                  file=sys.stderr)
            return 1
        report = json.loads(report_path.read_text(encoding="utf-8"))
        setups.append(report["setup_s"])

        passed = verdicts(ops, report["rounds"], work)
        attempted = sum(len(ok) for ok in passed)
        failed = sum(not good for ok in passed for good in ok)
        exited_ok = sum(r["rc"] == 0 for record in report["rounds"] for r in record["ops"])
        if args.trace:
            metrics = per_layer(ops, report, passed)
        else:
            metrics = end_to_end(ops, report, passed, setups)
    except subprocess.TimeoutExpired:
        print("error: workload process overran its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in wanted}
    rounds = report["rounds"]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({sum(r['traced'] for r in rounds)} traced), BLAS threads {BLAS_THREADS}, "
          f"cpus {os.cpu_count()}")
    for op, (rate, value) in zip(ops, command_rates(ops, rounds, passed).items()):
        print(f"  {rate:<26} {value:12.2f} 1/s  ({op.units} units per command)")
    for name in names:
        print(f"  {name:<26} {metrics[name]:12.4f} {units[name]}")
    result = {
        "correct": failed == attempted - exited_ok,  # every command that exited 0 was right
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
