"""Benchmark worker: imports curvecount, builds a workload's inputs, then
measures for --seconds.

This process imports the package and runs none of it, so every pass, run in
a process forked from this one, starts with the caches of a freshly imported
program.  Started by run.py; it prints "ready" once set up (run.py times
that), and with --probe exits there.  Otherwise it prints one JSON line of
raw samples when done.

The host's speed drifts by 20% and more, over seconds and over minutes, so
every timed sample (a pass, a set-up probe, a CLI run) is followed by a run
of the yardstick kernel (yardstick.py), and each sample carries the kernel's
seconds just before and just after it; run.py scales by them.  The set-up
probes and CLI runs are spread over the measuring window, between passes,
rather than timed in a burst; only one process computes at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

# Seconds an item may run before it is stopped and counted as failed, and
# seconds a whole pass may run.  Today's slowest items take about 0.4 s
# (classical), 1.2 s (planes) and 0.1 s (session).
ITEM_BOX = {"classical": 20.0, "planes": 30.0, "session": 5.0}
PASS_BOX = 45.0
REFERENCE_BOX = 60.0
MIN_PASSES = 3
# passes may start until --seconds is reached, and while fewer than
# MIN_PASSES have run, until this many more seconds
GRACE = 30.0
# set-up probes and CLI runs timed per run, each after one untimed run
AUX_RUNS = 20
AUX_BOX = 20.0
SPANS_DIR = HERE / "out"


class ItemTimeout(BaseException):
    """Raised in a pass worker by SIGALRM; not an Exception, so the
    program's own error handling cannot swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout


def in_child(fn, box: float):
    """Run fn() in a forked child and return its JSON result, or None when
    it failed or ran past box seconds (the child is then killed)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            payload = json.dumps(fn()).encode()
            with os.fdopen(write_end, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    chunks, deadline = [], time.monotonic() + box
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_end], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_end, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        return None
    return json.loads(b"".join(chunks))


def run_pass(cc, workload, items, expected, box, tracer=None, spans_path=None):
    """One pass over all items, in the forked worker.  Checks every answer
    after the timed region and returns statuses, per-item seconds, the pass
    seconds and the worker's peak RSS."""
    if tracer is not None:
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    answers, extras, seconds, status = [], [], [], []
    start = time.perf_counter()
    deadline = start + box
    for item in items:
        left = deadline - time.perf_counter()
        answer = extra = elapsed = None
        if left <= 0:
            status.append("timeout")
        else:
            try:
                signal.setitimer(signal.ITIMER_REAL, min(ITEM_BOX[workload], left))
                try:
                    t0 = time.perf_counter()
                    answer, extra = workloads.run_item(cc, workload, item)
                    elapsed = time.perf_counter() - t0
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                status.append("ok")
            except ItemTimeout:
                status.append("timeout")
            except Exception as exc:  # a raising item is a failed item
                status.append(f"raised {type(exc).__name__}: {exc}")
        answers.append(answer)
        extras.append(extra)
        seconds.append(elapsed)
    pass_s = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = None
    if tracer is not None:
        trace = tracer.counts() if tracer.counting else tracer.self_times()
        if spans_path is not None:
            tracer.write_spans(spans_path)
    for i, (answer, extra) in enumerate(zip(answers, extras)):
        if status[i] != "ok":
            continue
        if answer != expected[i]:
            status[i] = f"wrong: expected {expected[i][:80]!r}, got {answer[:80]!r}"
        elif extra is not None and cc.parse(extra[1]) != extra[0]:
            status[i] = f"render does not round-trip: {extra[1][:80]!r}"
    return {"status": status, "seconds": seconds, "pass_s": pass_s, "rss_kb": rss_kb, "trace": trace}


def time_probe(args) -> float:
    """Seconds from starting a fresh worker until it has imported
    curvecount and built the inputs."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
        ready = select.select([proc.stdout], [], [], AUX_BOX)[0]
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.kill()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"a set-up probe failed (exit {code})")
    return elapsed


def time_cli(workload) -> float | None:
    """Seconds of one `python -m curvecount` run, or None if its answer was
    wrong or it failed."""
    argv, answer = workloads.CLI[workload]
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "curvecount"] + argv, cwd=ROOT,
                              capture_output=True, text=True, timeout=AUX_BOX)
    except subprocess.TimeoutExpired:
        print("worker: a CLI run ran past its time box", file=sys.stderr)
        return None
    elapsed = time.perf_counter() - t0
    try:
        payload = json.loads(done.stdout)
        value = payload["outcome"]["count"] if "outcome" in payload else payload["result"]["value"]
    except (ValueError, KeyError, TypeError):
        value = None
    if done.returncode != 0 or str(value) != answer:
        print(f"worker: CLI run failed (exit {done.returncode}): {done.stderr[-300:]}", file=sys.stderr)
        return None
    return elapsed


def host_speed() -> float:
    """Seconds of one yardstick run, in a forked child."""
    seconds = in_child(yardstick.run, AUX_BOX)
    if seconds is None:
        raise RuntimeError("a yardstick run failed")
    return seconds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("classical", "planes", "session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once set up")
    args = ap.parse_args()

    import curvecount as cc

    if Path(cc.__file__).resolve().parent != ROOT / "src" / "curvecount":
        print(f"worker: imported curvecount from {cc.__file__}, not from this tree", file=sys.stderr)
        return 2
    items = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0

    recorded = workloads.load_expected()
    expected = in_child(lambda: workloads.expected_answers(cc, args.workload, items, recorded), REFERENCE_BOX)
    if expected is None:
        print("worker: computing the expected answers failed", file=sys.stderr)
        return 1

    out = {"items": len(items), "passes": [], "traced": [], "counting": None,
           "setup": [], "cli": [], "cli_failed": 0}
    start = time.monotonic()
    soft_end, hard_end = start + args.seconds, start + args.seconds + GRACE

    def one(tracer=None, spans_path=None):
        """One pass in a forked child, boxed to end by hard_end."""
        box = min(PASS_BOX, hard_end - time.monotonic())
        sample = in_child(lambda: run_pass(cc, args.workload, items, expected, box, tracer, spans_path), box + 5)
        if sample is None:
            sample = {"status": ["worker died"] * len(items), "seconds": [None] * len(items),
                      "pass_s": None, "rss_kb": None, "trace": None}
        return sample

    last = [None]

    def bracket():
        """[before, after]: the yardstick's seconds just before the sample
        just taken and just after it."""
        before, last[0] = last[0], host_speed()
        return [before, last[0]]

    def timed_pass(tracer=None, spans_path=None):
        sample = one(tracer, spans_path)
        sample["yard"] = bracket()
        return sample

    def aux():
        """One set-up probe and, while none has failed, one CLI run."""
        seconds = time_probe(args)
        out["setup"].append([seconds] + bracket())
        if out["cli_failed"]:
            return
        seconds = time_cli(args.workload)
        yard = bracket()
        if seconds is None:
            out["cli_failed"] += 1
        else:
            out["cli"].append([seconds] + yard)

    if not args.trace:  # untimed, as the first runs compile bytecode
        time_probe(args)
        out["cli_failed"] += time_cli(args.workload) is None
    out["warmup"] = one()
    if args.trace:
        out["counting"] = one(tracing.Tracer(counting=True))
    last[0] = host_speed()
    next_aux = time.monotonic()
    while True:
        now = time.monotonic()
        if now >= hard_end or (now >= soft_end and len(out["passes"]) >= MIN_PASSES):
            break
        out["passes"].append(timed_pass())
        if args.trace and time.monotonic() < hard_end:
            first = not out["traced"]
            path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl" if first else None
            out["traced"].append(timed_pass(tracing.Tracer(counting=False), path))
        elif not args.trace and len(out["setup"]) < AUX_RUNS and time.monotonic() >= next_aux:
            aux()
            next_aux += args.seconds / AUX_RUNS
    while not args.trace and len(out["setup"]) < AUX_RUNS:
        aux()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
