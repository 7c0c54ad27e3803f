"""Spans and call counts recorded from outside majinv.

The tracer wraps majinv's public entry points at module-attribute level:
every module of the package that binds the original function (the defining
module, re-imports such as ``qseries.enumerate_class`` and the package
namespace) gets the wrapper.  Spans are kept in memory as
(name, start, end, parent) and written out at the end of a pass; a span's
self time is its duration minus the durations of its direct child spans.

Per-word calls (``MajInvStatistic.evaluate`` and the words yielded by
``enumerate_class``) are too fine to span cheaply, so they are only counted;
their time is measured alone, on the same inputs, by ``time_alone``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, deque

import numpy as np

from majinv import statistics, words

SPANNED = {
    "cli": ("main",),
    "mahonian": (
        "verify_theorem_majinv",
        "verify_classification",
        "verify_kappa_machinery",
        "verify_macmahon",
        "verify_product_formula",
        "verify_applications",
        "verify_psi",
    ),
    "relations": (
        "is_total_order",
        "is_bipartitional",
        "extract_bipartition",
        "is_kappa_extension",
        "is_kappa_extensible",
        "kappa_closure",
    ),
    "qseries": (
        "distribution",
        "is_mahonian_up_to",
        "q_multinomial",
        "bipartitional_product_formula",
    ),
    "transform": ("psi", "psi_inverse"),
}


def _package_modules():
    return [
        mod for name, mod in sys.modules.items()
        if name == "majinv" or name.startswith("majinv.")
    ]


class Tracer:
    """Installs wrappers around majinv's entry points and records spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.enumerated_words = 0
        self.enumerated: list = []  # compositions passed to enumerate_class
        self.distributed: list = []  # (stat, composition) passed to distribution
        self._patches: list[tuple[object, str, object, object]] = []
        modules = _package_modules()
        for mod_name, attrs in SPANNED.items():
            mod = sys.modules[f"majinv.{mod_name}"]
            for attr in attrs:
                original = getattr(mod, attr)
                self._patch_everywhere(modules, original, self._span(f"{mod_name}.{attr}", original))
        self._patch_everywhere(modules, words.enumerate_class, self._enumerate_class(words.enumerate_class))
        evaluate = statistics.MajInvStatistic.evaluate
        self._patches.append(
            (statistics.MajInvStatistic, "evaluate", evaluate, self._counted("statistics.evaluate", evaluate))
        )

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in vars(mod).items():
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter
        log = self.distributed if name == "qseries.distribution" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if log is not None:
                log.append(args)
            record = [name_id, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        self.calls[name] = 0
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enumerate_class(self, fn):
        name = "words.enumerate_class"
        self.calls[name] = 0
        calls, log = self.calls, self.enumerated

        def counting(gen):
            n = 0
            try:
                for w in gen:
                    n += 1
                    yield w
            finally:
                self.enumerated_words += n

        @functools.wraps(fn)
        def wrapper(c):
            calls[name] += 1
            log.append(c)
            return counting(fn(c))

        return wrapper

    def span_arrays(self):
        """Columns name id, start, end, parent index of the recorded spans."""
        name_id, start, end, parent = (np.array(col) for col in zip(*self.spans))
        return name_id, start, end, parent

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per spanned name."""
        name_id, start, end, parent = self.span_arrays()
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        per_name = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        """Call counts and self times, named as the per-layer metrics."""
        out: dict[str, float] = {f"{name}.calls": n for name, n in self.calls.items()}
        out["words.enumerate_class.words"] = self.enumerated_words
        self_s = self.self_seconds()
        out.update((f"{name}.self_s", s) for name, s in self_s.items())
        out["relations.self_s"] = sum(
            s for name, s in self_s.items() if name.startswith("relations.")
        )
        return out

    def save(self, path, pass_id: int) -> None:
        name_id, start, end, parent = self.span_arrays()
        origin = start.min()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id.astype(np.int32),
            start=start - origin,
            end=end - origin,
            parent=parent.astype(np.int32),
            pass_id=np.int32(pass_id),
        )


def time_alone(tracer: Tracer) -> dict[str, float]:
    """Time class enumeration and statistic evaluation alone on the inputs the
    traced section passed them: every ``enumerate_class`` call exhausted with
    no consumer, and ``evaluate`` over the pre-materialized class of every
    ``distribution`` call.  Call with the tracer uninstalled."""
    clock = time.perf_counter
    t0 = clock()
    for c in tracer.enumerated:
        deque(words.enumerate_class(c), maxlen=0)
    enum_s = clock() - t0
    classes = {c: list(words.enumerate_class(c)) for _, c in tracer.distributed}
    t0 = clock()
    for stat, c in tracer.distributed:
        deque(map(stat.evaluate, classes[c]), maxlen=0)
    eval_s = clock() - t0
    return {"words.enumerate_class.alone_s": enum_s, "statistics.evaluate.alone_s": eval_s}
