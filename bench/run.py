"""majinv benchmark: one closed-loop client, one single-threaded pass at a time.

    python3 bench/run.py --workload <sweep|classes|deep|psi> --seed N \\
        --seconds S --trace <0|1>

Run from the root of a checkout.  Each pass is a fresh process
(``bench/single_pass.py``): CLI users pay the import and start with cold
caches on every call.  Passes repeat while the next one is expected to end
within ``--seconds``; an untraced run makes at least three.  With
``--trace 0`` the last line of output is a JSON object with every end-to-end
metric named in BENCHMARK.json, as the median over passes; with ``--trace 1`` untraced and traced passes alternate and the
metrics are the per-layer ones (counts must agree across traced passes).
Traced passes write their spans to ``bench/out/``.

Exits non-zero without a result when a pass fails or the checkout has no
majinv sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 3  # per kind of pass in an untraced run
MIN_TRACED_PASSES = 2  # of each kind in a traced run
PASS_TIMEOUT_S = 170  # the whole run must end within 180 s


def run_pass(args, traced: bool, pass_id: int, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "single_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--pass-id", str(pass_id),
    ]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}-pass{pass_id}.npz")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"pass {pass_id} of {args.workload} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass {pass_id} of {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name:44s} {statistics.median(values):14.6g} {unit:6s} "
        f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sweep", "classes", "deep", "psi"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "majinv" / "__init__.py").is_file():
        print(f"error: no majinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        OUT.mkdir(exist_ok=True)
        for old in OUT.glob(f"spans-{args.workload}-seed{args.seed}-pass*.npz"):
            old.unlink()
    start = time.monotonic()
    deadline = start + PASS_TIMEOUT_S
    plain: list[dict] = []
    traced: list[dict] = []
    last_s = {False: 0.0, True: 0.0}  # duration of the last pass of each kind
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        if args.trace:
            done = len(plain) >= MIN_TRACED_PASSES and len(traced) >= MIN_TRACED_PASSES
        else:
            done = len(plain) >= MIN_PASSES
        # stop before a pass that would end after --seconds
        if done and time.monotonic() - start + last_s[use_trace] > args.seconds:
            break
        t0 = time.monotonic()
        result = run_pass(args, use_trace, len(plain) + len(traced), deadline)
        last_s[use_trace] = time.monotonic() - t0
        (traced if use_trace else plain).append(result)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"check failed: {failure}")

    values: dict[str, list[float]] = {
        "setup_s": [p["setup_s"] for p in plain],
        "wall_s": [p["wall_s"] for p in plain],
        "work_per_s": [p["work"] / p["wall_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "checks_passed_frac": [1 - p["failed"] / p["attempted"] for p in plain],
    }
    counts_repeat = True
    if args.trace:
        for name in traced[0]["layers"]:
            values[name] = [p["layers"][name] for p in traced]
            if not name.endswith("_s") and len(set(values[name])) > 1:
                print(f"count {name} differs between traced passes: {values[name]}")
                counts_repeat = False
        wall = statistics.median(values["wall_s"])
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        values["trace.overhead_frac"] = [traced_wall / wall - 1]

    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced, {len(traced)} traced passes")
    for m in wanted:
        vals = values[m["name"]]
        print(describe(m["name"], vals, m["unit"]))
        metrics[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
    for name, unit in (("raw_setup_s", "s"), ("raw_wall_s", "s"), ("speed_factor", "x")):
        print(describe(name, [p[name] for p in plain], unit))
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
