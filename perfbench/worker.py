"""Runs one workload in a fresh interpreter and prints its figures as JSON.

``run.py`` starts this file with PYTHONHASHSEED fixed.  One client runs the
instances one after another in a closed loop.  The first call of each
instance runs in a forked child of its own, so that its wall and memory
limit, its resident-set high-water mark and any tracing wrappers belong to
that instance alone; the timed repeats run in further forked children.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import fsing  # noqa: E402,F401
from fsing.errors import DegreeGuardError, NonconvergenceError  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# Per-instance limits.  The slowest instance meant to finish (the Hesse
# cubic, 6.7-7.5 s) and the fastest one meant to be cut (restrict-check at
# p = 11, 34 s) both sit well clear of 12 s under +-30% machine drift.
WALL_LIMIT_S = 12.0
MEMORY_LIMIT_BYTES = 1536 * 2**20
KILL_GRACE_S = 5.0
# Timing.  During the first pass, after each instance, the light instances
# met so far (decided under LIGHT_S) are timed for ROUND_SHARE of the time
# since the last such round.  After it, they are timed until --seconds have
# passed since the run began, and for at least FINAL_MIN_S.  A visit of an
# instance makes up to VISIT_CALLS calls.
LIGHT_S = 0.5
ROUND_SHARE = 0.2
ROUND_MIN_S = 0.05
FINAL_MIN_S = 3.0
VISIT_CALLS = 20
# Timed calls move to the quietest CPU every REPROBE_S.
REPROBE_S = 0.2
CPUS = sorted(os.sched_getaffinity(0))

# Spans that must fire on a workload that is built to reach them.
REQUIRED_SPANS = {
    "sigma-divisor": ("ring.mul", "ring.pow", "frobenius.root", "groebner.basis", "groebner.normal_form",
                      "nonfpure.sigma"),
    "sigma-monomial": ("newton.hull", "newton.ideal", "newton.closure", "newton.jumps", "nonfpure.sigma"),
    "cli-tau-restrict": ("cli.run", "nonfpure.tau_b", "newton.power", "restriction.check",
                         "groebner.image_in_quotient", "frobenius.root", "nonfpure.sigma"),
}


class InstanceLimit(BaseException):
    """The wall limit ran out; a BaseException so fsing cannot swallow it."""


def _on_alarm(signum, frame):
    raise InstanceLimit


def _limit_self() -> None:
    """The memory and wall limits, for this (forked) process only."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
    signal.signal(signal.SIGALRM, _on_alarm)


def _probe_s() -> float:
    """Fastest of three runs of a short pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


def move_to_quiet_cpu() -> None:
    """Pin this process to the CPU, of those it may use, on which a probe
    loop runs fastest right now.

    On the shared 2-CPU machine the benchmark was built on, each CPU slows
    by up to 1.7x in spells of its own, from milliseconds to minutes, and
    one CPU is often fast while the other is slow.  Spells longer than a
    run on one CPU were common; on both at once they were rare."""
    if len(CPUS) < 2:
        return
    speeds = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = _probe_s()
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def _timed_call(instance) -> tuple[str, object, float]:
    """(status, result, seconds) of one call of ``instance`` under the wall limit."""
    status, result = "decided", None
    signal.setitimer(signal.ITIMER_REAL, WALL_LIMIT_S)
    t0 = time.perf_counter()
    try:
        result = instance.call()
    except InstanceLimit:
        status = "limit"
    except MemoryError:
        status = "memory"
    except (DegreeGuardError, NonconvergenceError) as exc:
        status = f"guard: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, result, elapsed


def _single_child(instance, traced: bool) -> dict:
    """One call of ``instance``, traced or not, with its answer and memory."""
    _limit_self()
    move_to_quiet_cpu()
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
        tracer.recording = True
    status, result, elapsed = _timed_call(instance)
    if tracer:
        tracer.recording = False
    report = {"status": status, "time_s": elapsed,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if status == "decided":
        report["answer"] = canonical(instance.encode(result))
    if tracer:
        report["layers"] = tracer.metrics()
    return report


def _timing_child(instances, answers: dict, repeats: dict, cursor: int, until: float) -> dict:
    """Timed calls of ``instances`` in one process, round robin from index
    ``cursor``, until the monotonic clock reads ``until``, moving to the
    quietest CPU every REPROBE_S.  Each visit of an instance makes
    ``repeats[name]`` calls.  The first call of each instance in the child
    must repeat the answer of its first pass; later calls are timed, not
    encoded."""
    _limit_self()
    samples: dict[str, list[float]] = {}
    broken: dict[str, str] = {}
    todo = list(instances)
    probed = 0.0
    while todo and time.monotonic() < until:
        if time.monotonic() - probed > REPROBE_S:
            move_to_quiet_cpu()
            probed = time.monotonic()
        instance = todo[cursor % len(todo)]
        for _ in range(repeats[instance.name]):
            status, result, elapsed = _timed_call(instance)
            if status != "decided":
                broken[instance.name] = status
            elif instance.name not in samples and canonical(instance.encode(result)) != answers[instance.name]:
                broken[instance.name] = "answer differs from the first pass"
            else:
                samples.setdefault(instance.name, []).append(elapsed)
                continue
            todo.remove(instance)
            break
        else:
            cursor += 1
    return {"samples": samples, "broken": broken, "cursor": cursor}


def canonical(answer: dict):
    """``answer`` as it reads after a JSON round trip, for comparisons."""
    return json.loads(json.dumps(answer))


def in_child(task, limit_s: float) -> dict | None:
    """Run ``task()`` in a forked child and return the dict it returns, or
    None when the child failed or ran ``limit_s`` past its start (it is then
    killed).  The parent always waits for the child to end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            try:
                report = task()
            except Exception as exc:  # reported to the parent as a failure
                report = {"error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "wb") as out:
                out.write(json.dumps(report).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    deadline = time.monotonic() + limit_s
    chunks = []
    with os.fdopen(read_fd, "rb") as inp:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([inp], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                chunks = []
                break
            chunk = os.read(inp.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if not chunks or status != 0:
        return None
    return json.loads(b"".join(chunks))


def run_instance(instance, traced: bool) -> dict:
    """One call of ``instance`` in a forked child: the child's report."""
    started = time.monotonic()
    report = in_child(lambda: _single_child(instance, traced), WALL_LIMIT_S + KILL_GRACE_S)
    if report is None:
        return {"status": "killed", "time_s": time.monotonic() - started, "maxrss_mb": 0.0}
    if "error" in report:
        return {"status": f"error: {report['error']}", "time_s": 0.0, "maxrss_mb": 0.0}
    return report


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, recorded for attribution only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def steal_ticks() -> int | None:
    """The steal column of the cpu line of /proc/stat (read only)."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def digest(instances) -> str:
    data = json.dumps([[i.name, i.inputs] for i in instances], sort_keys=True, default=str)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it,
    with that percentile and the sample count (the maximum below 11 samples)."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def solve(instances, seconds: float) -> tuple[dict, dict, int]:
    """The first pass of a run, and the timed calls between and after it.

    The first pass runs every instance once, each in its own forked child,
    for its status, answer and memory.  The light instances are then timed
    again in further children, one per round, each going on round robin
    where the last one stopped, so that each is timed many times spread
    over the whole run.  An instance's time is the fastest of its calls,
    the first-pass call included; a heavier one has that call alone.

    On the shared 2-CPU machine the benchmark was built on, each CPU runs
    at two or three speeds up to 1.7x apart and switches between them within
    milliseconds to minutes.  Slow spells only add time.  Over windows of 20
    to 60 s, the fastest of many calls of a fixed loop moved a third as much
    as their median or mean, and less the longer the window.  Every call
    also runs on the CPU that is quietest when it starts.
    """
    start = time.monotonic()
    first: dict[str, dict] = {}
    samples: dict[str, list[float]] = {}
    broken: dict[str, str] = {}
    cursor = rounds = 0

    def timed(chosen, until):
        nonlocal cursor, rounds
        answers = {i.name: first[i.name]["answer"] for i in chosen}
        # A visit lasts about as long as a call of the instance at the 75th
        # percentile, so lighter instances get more calls.
        cost = {i.name: first[i.name]["time_s"] for i in chosen}
        visit_s = statistics.quantiles(cost.values(), n=4)[2] if len(cost) > 1 else 0.0
        repeats = {name: max(1, min(VISIT_CALLS, round(visit_s / t))) for name, t in cost.items()}
        report = in_child(lambda: _timing_child(chosen, answers, repeats, cursor, until),
                          until - time.monotonic() + WALL_LIMIT_S + KILL_GRACE_S)
        if report is None or "error" in report:
            raise SystemExit(f"timed calls failed: {report}")
        for name, values in report["samples"].items():
            samples.setdefault(name, []).extend(values)
        broken.update(report["broken"])
        cursor = report["cursor"]
        rounds += 1

    light = []
    last_round = start
    for instance in instances:
        first[instance.name] = record = run_instance(instance, traced=False)
        if record["status"] == "decided" and record["time_s"] < LIGHT_S:
            light.append(instance)
        now = time.monotonic()
        slice_s = ROUND_SHARE * (now - last_round)
        if light and slice_s >= ROUND_MIN_S:
            timed([i for i in light if i.name not in broken], now + slice_s)
            last_round = time.monotonic()
    timed([i for i in light if i.name not in broken], max(start + seconds, time.monotonic() + FINAL_MIN_S))
    times = {name: min([record["time_s"], *samples.get(name, [])]) for name, record in first.items()}
    return first, {"times": times, "broken": broken}, rounds


def traced_pass(instances) -> tuple[dict, dict]:
    """One traced run of every instance, plus an untraced one of each
    instance the traced run decided, for the tracing overhead."""
    traced, untraced = {}, {}
    for instance in instances:
        traced[instance.name] = record = run_instance(instance, traced=True)
        if record["status"] == "decided":
            untraced[instance.name] = run_instance(instance, traced=False)
    return traced, untraced


def judge(instances, first: dict, broken: dict) -> dict:
    """Decided, correct and stable counts from the first pass of each
    instance.  ``broken`` names the instances a timed pass did not decide
    again, or decided with another answer."""
    out = {"decided": [], "undecided": [], "wrong": [], "failed": [], "stable": [0, 0]}
    for instance in instances:
        record = first[instance.name]
        status = record["status"]
        answer = record.get("answer")
        again = broken.get(instance.name, "")
        if status.startswith(("error", "killed")):
            out["failed"].append(f"{instance.name}: {status}")
            continue
        if status != "decided" or answer.get("exit", 0) != 0 or again.startswith(("limit", "memory", "guard")):
            out["undecided"].append(instance.name)
            continue
        out["decided"].append(instance.name)
        problem = instance.check(answer)
        if problem is None and again:
            problem = f"{instance.name}: {again}"
        if problem:
            out["wrong"].append(problem)
        out["stable"][0] += sum(answer.get("stable", []))
        out["stable"][1] += len(answer.get("stable", []))
    return out


def end_to_end(instances, first: dict, times: dict, verdict: dict) -> tuple[dict, dict]:
    values = list(times.values())
    tail_value, percentile, count = tail(values)
    decided = verdict["decided"]
    stable, sigma_results = verdict["stable"]
    metrics = {
        "solve_s": sum(values),
        "latency_p50_s": statistics.median(values),
        "latency_tail_s": tail_value,
        "decided_frac": len(decided) / len(instances),
        "correct_frac": (len(decided) - len(verdict["wrong"])) / len(decided) if decided else 0.0,
        # vacuously 1 on a workload that computes no sigma
        "stable_frac": stable / sigma_results if sigma_results else 1.0,
        "peak_rss_mb": max((first[name]["maxrss_mb"] for name in decided), default=0.0),
    }
    notes = {"tail_percentile": percentile, "tail_samples": count,
             "instance_s": {name: round(t, 4) for name, t in sorted(times.items())}}
    return metrics, notes


def per_layer(workload: str, traced: dict, untraced: dict) -> tuple[dict, dict]:
    totals: dict[str, float] = {}
    for record in traced.values():
        for key, value in record.get("layers", {}).items():
            totals[key] = totals.get(key, 0) + value
    missing = [s for s in REQUIRED_SPANS[workload] if not totals.get(f"{s}.calls")]
    if missing:
        raise SystemExit(f"trace self-check: spans {missing} never fired on {workload}")
    nf_calls = totals["groebner.normal_form.calls"]
    metrics = dict(totals)
    metrics["groebner.normal_form.zero_ratio"] = totals["groebner.normal_form.zero"] / nf_calls if nf_calls else 0.0
    metrics["cli.exit_nonzero"] = totals.get("cli.run.exit_nonzero", 0)
    traced_s = sum(traced[name]["time_s"] for name in untraced)
    untraced_s = sum(r["time_s"] for r in untraced.values())
    metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 1.0
    solve_s = sum(r["time_s"] for r in traced.values())
    groups = {
        "ring": ("ring.mul", "ring.pow"),
        "frobenius": ("frobenius.root",),
        "groebner": ("groebner.basis", "groebner.normal_form", "groebner.image_in_quotient"),
        "newton": ("newton.hull", "newton.ideal", "newton.closure", "newton.power", "newton.jumps"),
        "nonfpure.sigma": ("nonfpure.sigma",),
        "nonfpure.tau_b": ("nonfpure.tau_b",),
        "restriction": ("restriction.check",),
        "cli": ("cli.run",),
    }
    shares = {group: round(sum(totals[f"{s}.self_s"] for s in spans) / solve_s, 4) for group, spans in groups.items()}
    return metrics, {"traced_solve_s": solve_s, "self_time_share": shares}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    instances = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    gc.collect()
    gc.freeze()  # children then leave the parent's heap pages shared
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "instances": len(instances),
        "instance_digest": digest(instances),
        "calibration_s": calibration_s(),
        "wall_limit_s": WALL_LIMIT_S,
        "memory_limit_mb": MEMORY_LIMIT_BYTES >> 20,
    }
    steal_before = steal_ticks()
    if args.trace:
        traced, untraced = traced_pass(instances)
        verdict = judge(instances, traced, {})
        metrics, layer_notes = per_layer(args.workload, traced, untraced)
        notes.update(layer_notes)
    else:
        first, timed, notes["rounds"] = solve(instances, args.seconds)
        verdict = judge(instances, first, timed["broken"])
        metrics, e2e_notes = end_to_end(instances, first, timed["times"], verdict)
        notes.update(e2e_notes)
        leftover = spans.installed_wrappers()
        if leftover:
            raise SystemExit(f"untraced run found tracing wrappers: {leftover}")
    steal_after = steal_ticks()
    notes["steal_ticks"] = None if steal_before is None else steal_after - steal_before
    notes["undecided"] = verdict["undecided"]
    for problem in verdict["wrong"] + verdict["failed"]:
        print(f"MISMATCH {problem[:500]}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": len(instances),
        "failed": len(verdict["failed"]) + len(verdict["wrong"]),
        "correct": not verdict["wrong"] and not verdict["failed"],
        "metrics": metrics,
        "notes": notes,
    }))


if __name__ == "__main__":
    main()
