"""curvecount benchmark.

    python3 perfbench/run.py --workload {classical,planes,session} --seed N \
        --seconds S --trace {0,1}

The package is imported from src/ of the source tree this file sits in; the
run exits 2 without a result when there is none.  This process never
imports curvecount: it starts the measuring worker (worker.py), boxes its
set-up and run, and turns the worker's raw samples into metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"};
--trace 0 gives the end-to-end metrics and --trace 1 the per-layer ones.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import yardstick  # noqa: E402

SETUP_BOX = 20.0
WORKER_GRACE = 140.0  # seconds beyond --seconds before the worker is killed


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def tally(samples: list) -> tuple:
    attempted = failed = 0
    for sample in samples:
        for status in sample["status"]:
            attempted += 1
            if status != "ok":
                failed += 1
                if failed <= 5:
                    log(f"failed item: {status}")
    return attempted, failed


def clean(samples: list) -> list:
    """Passes whose every item was answered correctly; only they are timed."""
    return [s for s in samples if s["pass_s"] is not None and all(x == "ok" for x in s["status"])]


# A time is the median over a run of samples each scaled to the reference
# host speed by the yardstick runs next to it (yardstick.py): the host slows
# whole runs by up to 60%, which no statistic of raw times over one run
# removes.


def median_scaled(samples, seconds) -> float:
    """Median of seconds(sample), each scaled by the sample's yardstick runs."""
    return statistics.median(yardstick.scale(seconds(s), *s["yard"]) for s in samples)


def end_to_end(run, attempted, failed) -> dict:
    """The end-to-end metrics; a time is left out when no sample of it was
    answered correctly."""
    out = {}
    if run["setup"]:
        out["setup_s"] = (statistics.median(yardstick.scale(*s) for s in run["setup"]), "s")
    passes = clean(run["passes"])
    if passes:
        per_item = [median_scaled(passes, lambda p: p["seconds"][i]) * 1000 for i in range(run["items"])]
        quantiles = statistics.quantiles(per_item, n=100, method="inclusive")
        pass_s = median_scaled(passes, lambda p: p["pass_s"])
        out["pass_s"] = (pass_s, "s")
        out["queries_per_s"] = (run["items"] / pass_s, "1/s")
        out["query_ms.p50"] = (quantiles[49], "ms")
        out["query_ms.p99"] = (quantiles[98], "ms")
        out["peak_rss_mb"] = (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB")
    if run["cli"]:
        out["cli_s"] = (statistics.median(yardstick.scale(*s) for s in run["cli"]), "s")
    out["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    return out


def per_layer(run) -> dict:
    """The per-layer metrics; counts come from the counting pass, times
    from the span passes."""
    out = {}
    if run["counting"]["trace"] is not None:
        out = {name: (value, "ratio" if name == "schubert.pairs.reuse" else "count")
               for name, value in run["counting"]["trace"].items()}
    traced, plain = clean(run["traced"]), clean(run["passes"])
    if traced:
        for name in tracing.SELF_TIME:
            out[name] = (median_scaled(traced, lambda p: p["trace"][name]), "s")
    if traced and plain:
        overhead = median_scaled(traced, lambda p: p["pass_s"]) / median_scaled(plain, lambda p: p["pass_s"]) - 1
        out["trace.overhead"] = (overhead, "ratio")
    return out


def measure(args, env) -> tuple:
    """Run the measuring worker; return (metrics, attempted, failed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = select.select([proc.stdout], [], [], SETUP_BOX)[0]
            line = proc.stdout.readline() if ready else ""
            if line.strip() != "ready":
                raise RuntimeError("the worker failed to set up")
            stdout, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{exc}; worker stopped") from None
    if proc.returncode != 0:
        raise RuntimeError(f"the worker exited with {proc.returncode}")
    run = json.loads(stdout.strip().splitlines()[-1])
    samples = run["passes"] + run["traced"] + [run["warmup"]] + ([run["counting"]] if run["counting"] else [])
    attempted, failed = tally(samples)
    attempted += len(run["cli"]) + run["cli_failed"]
    failed += run["cli_failed"]
    timed = run["passes"] + run["traced"]
    yard = [s["yard"][1] for s in timed] + [s[2] for s in run["setup"] + run["cli"]]
    if yard:
        log(f"yardstick: median {statistics.median(yard):.4f} s over {len(yard)} runs, "
            f"reference {yardstick.REFERENCE_S} s")
    if args.trace:
        return per_layer(run), attempted, failed
    return end_to_end(run, attempted, failed), attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("classical", "planes", "session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "curvecount" / "__init__.py").is_file():
        log(f"no curvecount source tree at {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        metrics, attempted, failed = measure(args, env)
    except RuntimeError as exc:
        log(str(exc))
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    if failed:
        log(f"{failed} of {attempted} items failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
