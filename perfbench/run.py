"""Benchmark of poisfact's split → train → evaluate → recommend path.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit-proxgrad --seed 1 --seconds 20 --trace 0

The seed makes the inputs; they are generated once per (workload, seed) and
cached under .perfbench-cache/. A run is three rounds, each in a fresh
interpreter (worker.py), so set-up time and peak RSS belong to that round;
each round repeats measured cycles for a third of ``--seconds``. The last
round also checks every output against reference computations made apart
from the program. The last line of stdout is one JSON object: with
``--trace 0`` the end-to-end metrics (medians over the rounds' samples,
scaled to the reference machine speed by the calibration kernel timed
between phases), with ``--trace 1`` the per-layer metrics of one traced
round, next to an untraced round that gives the tracing overhead. The traced
round's spans are written to .perfbench-cache/spans-<workload>-<seed>.json.gz.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import calibrate  # noqa: E402  (only its reference constant; the kernel runs in the rounds)
ROUNDS = 3
# Seconds of a round's share of --seconds that go to start-up and warm-up.
SETUP_ALLOWANCE_S = 2.0
ROUND_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "recommend_p50_ms": "ms",
    "recommend_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics that are times, and so scale with the machine's speed.
TIMINGS = {name for name, unit in END_TO_END_UNITS.items() if unit in ("s", "ms")}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(args, cache: str, check: bool, budget: float = 0.0, trace_path: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--cache", cache, "--budget", f"{budget:.3f}"]
    if check:
        cmd.append("--check")
    if trace_path:
        cmd += ["--trace", trace_path]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup"] = result["ready"] - spawned
    return result


def median(values) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of the pooled samples."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def pooled(rounds: list[dict], name: str) -> list[float]:
    return [x for r in rounds for x in r["samples"][name]]


def kernel_median(rounds: list[dict]) -> float:
    return median(x for r in rounds for x in r["calibration"])


def end_to_end(rounds: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """The metrics scaled to the reference machine speed, and as timed."""
    latencies = pooled(rounds, "recommend")
    raw = {
        "setup_s": median(r["setup"] for r in rounds),
        "ingest_s": median(pooled(rounds, "ingest")),
        "train_s": median(pooled(rounds, "train")),
        "evaluate_s": median(pooled(rounds, "evaluate")),
        "pipeline_s": median(pooled(rounds, "pipeline")),
        "recommend_p50_ms": quantile(latencies, 0.50) * 1e3,
        "recommend_p99_ms": quantile(latencies, 0.99) * 1e3,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }
    speed = calibrate.REFERENCE_S / kernel_median(rounds)
    scaled = {name: value * (speed if name in TIMINGS else 1.0) for name, value in raw.items()}
    return scaled, raw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join("src", "poisfact")):
        return fail("run from the root of a poisfact checkout: src/poisfact is missing")
    if args.seed < 0:
        return fail("--seed must be nonnegative")
    from inputs import WORKLOADS, ensure_inputs
    import reference

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    problems = [f"reference self-test: {msg}" for msg in reference.self_test()]
    cache = ensure_inputs(WORKLOADS[args.workload], args.seed)

    rounds = []
    started = time.monotonic()
    try:
        if args.trace:
            spans = os.path.join(os.path.dirname(cache), f"spans-{args.workload}-{args.seed}.json.gz")
            rounds.append(run_round(args, cache, check=True))
            traced = run_round(args, cache, check=False, trace_path=spans)
        else:
            while len(rounds) < ROUNDS:
                left = args.seconds - (time.monotonic() - started)
                budget = max(0.0, left / (ROUNDS - len(rounds)) - SETUP_ALLOWANCE_S)
                rounds.append(run_round(args, cache, check=len(rounds) == ROUNDS - 1, budget=budget))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"round {len(rounds)} failed: {exc}")

    # Every round's record, for a look at the samples behind the medians.
    records = os.path.join(os.path.dirname(cache), f"rounds-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(records, "w", encoding="utf-8") as fh:
        json.dump(rounds + ([traced] if args.trace else []), fh)
    checks = rounds[-1]["checks"]
    problems += [f"check {name}: {msg}" for name, msg in checks.items() if msg]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["samples"]["pipeline"][0] - median(pooled(rounds, "pipeline"))
        layers["machine.kernel_ms"] = kernel_median(rounds + [traced]) * 1e3
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        scaled, raw = end_to_end(rounds)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in scaled.items()}

    cycles = sum(r["cycles"] for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds) + args.trace} rounds, "
          f"{cycles} measured cycles in {time.monotonic() - started:.1f} s")
    if not args.trace:
        print(f"  calibration kernel median {kernel_median(rounds) * 1e3:.2f} ms over "
              f"{sum(len(r['calibration']) for r in rounds)} timings (reference "
              f"{calibrate.REFERENCE_S * 1e3:.0f} ms); timings below are scaled by their ratio, "
              "as timed in brackets")
    for name, m in metrics.items():
        as_timed = f" [{raw[name]:.6g}]" if not args.trace and name in TIMINGS else ""
        print(f"  {name} {m['value']:.6g} {m['unit']}{as_timed}")
    print("  quality " + " ".join(f"{k}={v:.6g}" for k, v in rounds[-1]["quality"].items()))
    print("  checks " + " ".join(f"{name}={'ok' if not msg else 'FAIL'}" for name, msg in checks.items()))
    if args.trace:
        print(f"  spans written to {spans}")
    for problem in problems:
        print(f"  {problem}")
    print(f"  operations attempted {attempted} failed {failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def layer_unit(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    return {"s": "s", "ms": "ms", "us": "us", "mb": "MB"}.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
