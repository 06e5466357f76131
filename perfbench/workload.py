"""One workload process: import hofkit, then run whole rounds of commands.

Started by ``run.py`` in a fresh interpreter, so its peak RSS is the
program's alone: the inputs were generated, and are checked, in the parent.
Each round runs every command of the plan once, in-process through
``hofkit.cli.main``. Rounds repeat until the next one would overrun the
measuring time. With ``--trace 1`` untraced and traced rounds alternate,
so one run gives both the per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hofkit.cli  # noqa: E402  (set-up time includes this import)

import spans  # noqa: E402


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_op(argv: list[str]) -> int:
    try:
        return hofkit.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad command line this way
        return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true", help="report set-up time and exit")
    parser.add_argument("--plan")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--report")
    args = parser.parse_args()
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    tracer = spans.Tracer()
    rounds = []
    begin = time.perf_counter()
    while True:
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 1
        round_dir = Path(plan["rounds_dir"]) / f"r{index}"
        round_dir.mkdir(parents=True)
        record = {"traced": traced, "ops": []}
        round_start = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for op in plan["ops"]:
                argv = [a.replace("{round}", str(round_dir)) for a in op["argv"]]
                start = time.perf_counter()
                with contextlib.redirect_stdout(sys.stderr):
                    rc = run_op(argv)
                seconds = time.perf_counter() - start
                record["ops"].append({"name": op["name"], "rc": rc, "seconds": seconds})
        finally:
            tracer.uninstall()
        round_s = time.perf_counter() - round_start
        if traced:
            record["layers"] = spans.layer_metrics(tracer)
        # hash outside the timed region; only the first round's files are kept
        for op, result in zip(plan["ops"], record["ops"]):
            result["hashes"] = {name: _sha256(round_dir / name) if (round_dir / name).exists()
                                else None for name in op["outputs"]}
        if index > 0:
            shutil.rmtree(round_dir)
        rounds.append(record)
        elapsed = time.perf_counter() - begin
        if args.trace and len(rounds) < 2:
            continue
        if elapsed + round_s > args.seconds:
            break

    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"setup_s": setup_s, "peak_rss_mib": peak_mib, "rounds": rounds}
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
