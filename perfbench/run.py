"""fsing benchmark: one workload, one seed, one line of JSON figures.

    python3 perfbench/run.py --workload sigma-divisor --seed 1 --seconds 40 --trace 0

Run it from the repository root, which must hold ``src/fsing``.  With
``--trace 0`` the last line carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer ones.  The line
before it carries run diagnostics (seed, instance digest, calibration loop,
steal ticks, undecided instances), which never rescale a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 11
RUN_LIMIT_S = 175.0


def worker(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter and process group; return the
    JSON object on its last stdout line.  The group is killed on timeout."""
    # Bytecode is never cached, so every set-up sample compiles fsing alike.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {args} ran past the run limit")
    if proc.returncode != 0:
        raise SystemExit(f"worker {args} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    result = worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    figures = dict(result["metrics"])
    if not args.trace:
        # Set-up is measured in fresh interpreters; the median resists one slow start.
        samples = [result["setup_s"]]
        samples += [worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        figures["setup_s"] = statistics.median(samples)
        result["notes"]["setup_samples_s"] = samples
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing:
        raise SystemExit(f"metrics {missing} were not measured")
    print(json.dumps({"diagnostics": result["notes"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    main()
