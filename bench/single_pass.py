"""One benchmark pass in a fresh process.

Imports majinv from the checkout's ``src``, builds the seeded inputs (both
timed as set-up), runs the workload once, checks its outputs and prints one
JSON line.  With ``--trace 1`` it also records spans and counts in the timed
section, writes the spans to ``--spans``, and times class enumeration and
statistic evaluation alone.  ``bench/run.py`` starts one of these per pass.

Times are reported in normalized seconds.  On a shared VM the speed of the
CPU swings by up to 1.8x within seconds (other tenants), so raw seconds of
the same code do not repeat between runs.  While a timed section runs, a
timer signal every SAMPLE_EVERY_S runs a tiny fixed kernel and records how
long it took; the section's raw time (kernel time excluded) is scaled by the
mean of KERNEL_REF_S / sample, i.e. to the speed at which the kernel takes
KERNEL_REF_S.  Raw times are reported alongside.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_EVERY_S = 0.02
# The kernel's time at the reference speed: about its median on the 2-core
# VM the benchmark was defined on (Python 3.11).
KERNEL_REF_S = 0.0004


@dataclass(frozen=True, slots=True)
class _Cell:
    row: int
    col: int


def _cells(n: int):
    for i in range(n):
        yield _Cell(i & 7, (i >> 3) & 7)


def speed_kernel() -> int:
    """Fixed pure-Python work of the kinds majinv does: a generator, small
    objects, tuples, bit operations and a dict.  Independent of majinv, so
    a change to majinv cannot move it."""
    acc = 0
    seen: dict = {}
    for cell in _cells(400):
        key = (cell.row, cell.col, acc & 3)
        acc += ((cell.row | (cell.col << 3)) >> key[2]) & 1
        seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


class Section:
    """Reusable context manager that sums the raw time spent inside it and
    samples the machine's speed meanwhile.  The tracer, if any, is installed
    only inside."""

    def __init__(self) -> None:
        self.tracer = None
        self.raw_s = 0.0
        self.kernel_s: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        speed_kernel()
        self.kernel_s.append(time.perf_counter() - t0)

    def __enter__(self) -> None:
        if self.tracer:
            self.tracer.install()
        self._first = len(self.kernel_s)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.tracer:
            self.tracer.uninstall()
        self.raw_s += elapsed - sum(self.kernel_s[self._first:])

    def speed_factor(self) -> float:
        """Multiply raw seconds by this to get normalized seconds."""
        return statistics.mean(KERNEL_REF_S / k for k in self.kernel_s)


class Gate:
    """Counts output checks, and sums the checked/violation counts of the
    mahonian Reports the workload saw."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.checked = self.violations = 0

    def check(self, ok: bool, what: str) -> None:
        self.check_many(1 if ok else 0, 1, what)

    def check_many(self, passed: int, total: int, what: str) -> None:
        self.attempted += total
        self.failed += total - passed
        if passed < total and len(self.failures) < 10:
            self.failures.append(f"{what}: {total - passed} of {total} failed")

    def report(self, checked: int, violations: int) -> None:
        self.checked += checked
        self.violations += violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pass-id", type=int, required=True)
    parser.add_argument("--spans", help="where a traced pass writes its spans (.npz)")
    args = parser.parse_args()

    setup_section = Section()
    with setup_section:
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import majinv

        if not Path(majinv.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"majinv imported from {majinv.__file__}, not from {src}")
        import workloads

        setup, run = workloads.WORKLOADS[args.workload]
        inputs = setup(random.Random(args.seed))

    timed = Section()
    if args.trace:
        import tracing

        timed.tracer = tracing.Tracer()
    gate = Gate()
    work = run(inputs, timed, gate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factor = timed.speed_factor()
    result = {
        "setup_s": setup_section.raw_s * setup_section.speed_factor(),
        "wall_s": timed.raw_s * factor,
        "raw_setup_s": setup_section.raw_s,
        "raw_wall_s": timed.raw_s,
        "speed_factor": factor,
        "work": work,
        "peak_rss_mb": peak_rss_mb,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
    }
    tracer = timed.tracer
    if tracer:
        layers = tracer.metrics()
        layers["mahonian.checked"] = gate.checked
        layers["mahonian.violations"] = gate.violations
        layers.update(tracing.time_alone(tracer))
        result["layers"] = {
            name: value * factor if name.endswith("_s") else value
            for name, value in layers.items()
        }
        if args.spans:
            tracer.save(args.spans, args.pass_id)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
