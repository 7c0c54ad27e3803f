"""The four benchmark workloads: seeded inputs, timed calls into majinv, and
output checks against references that do not call the layer being timed.

Each workload is a pair of functions:

  setup(rng)                 -> inputs   (counted in setup_s)
  run(inputs, timed, gate)   -> units of work done

``timed`` is a reusable context manager: only the code inside it counts
towards wall_s, and only there is the tracer (if any) installed.  ``gate.check``
records one output check.

Sizes were chosen so that one pass takes about 2-3 s on a 2-core VM.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import defaultdict
from dataclasses import dataclass

from majinv import cli, mahonian, qseries, relations, statistics, transform
from majinv.relations import Relation
from majinv.words import Composition, Word, class_size, words_of_length

# ---------------------------------------------------------------------------
# sweep and classes: `majinv verify <suite>` run in-process through cli.main


@dataclass(frozen=True)
class Suite:
    argv: tuple[str, ...]
    exit_code: int
    checked: int
    violations: int
    witnesses: dict  # the pinned subset of the Report's witnesses


# The classification pins record criterion 6's disagreement (42 mahonian pairs
# where r!^2 = 36 is claimed; 6 unclassified pairs plus the count mismatch).
SWEEP_SUITES = (
    Suite(
        ("verify", "theorem-majinv", "--size", "3", "--max-weight", "5"),
        0, 4**9, 0,
        {"kappa_extension_pairs": 1701, "equidistributed_pairs": 1701},
    ),
    Suite(
        ("verify", "classification", "--size", "3", "--max-weight", "5"),
        2, 4**9, 7,
        {"mahonian_pairs": 42, "expected_count": 36},
    ),
    Suite(
        ("verify", "closure", "--size", "3"),
        0, 514, 0,
        {"kappa_extensible": 128, "bipartitional": 74},
    ),
)

CLASSES_SUITES = (
    Suite(("verify", "macmahon", "--size", "4", "--max-weight", "6"), 0, 210, 0, {}),
    Suite(
        ("verify", "product-formula", "--size", "3", "--max-weight", "5"),
        0, 7168, 0,
        {"kappa_extensible": 128},
    ),
    Suite(("verify", "applications", "--max-weight", "4"), 0, 18200, 0, {}),
)

PAIR_SUITES = ("theorem-majinv", "classification")


def _run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _run_suites(suites, timed, gate, work_of) -> int:
    work = 0
    for suite in suites:
        with timed:
            code, text = _run_cli(suite.argv)
        report = json.loads(text)
        name = suite.argv[1]
        gate.check(code == suite.exit_code, f"{name}: exit {code}")
        gate.check(report["checked"] == suite.checked, f"{name}: checked")
        gate.check(len(report["violations"]) == suite.violations, f"{name}: violations")
        for key, value in suite.witnesses.items():
            gate.check(report["witnesses"].get(key) == value, f"{name}: {key}")
        gate.report(report["checked"], len(report["violations"]))
        work += work_of(name, report)
    return work


def setup_sweep(rng):
    return SWEEP_SUITES  # exhaustive sweeps: the seed is unused


def run_sweep(suites, timed, gate) -> int:
    """Work: ordered relation pairs swept by the two pair suites."""
    return _run_suites(
        suites, timed, gate,
        lambda name, report: report["checked"] if name in PAIR_SUITES else 0,
    )


def setup_classes(rng):
    return CLASSES_SUITES  # fixed suites: the seed is unused


def run_classes(suites, timed, gate) -> int:
    """Work: checks reported by the three suites."""
    return _run_suites(suites, timed, gate, lambda name, report: report["checked"])


# ---------------------------------------------------------------------------
# deep: qseries.distribution on a few large classes


@dataclass(frozen=True)
class DeepCase:
    label: str
    stat: statistics.MajInvStatistic
    comp: Composition
    reference: str  # "q_multinomial", "product_formula" or "prefix_dp"


def setup_deep(rng) -> list[DeepCase]:
    """Fixed classes (253,890 words in all); the seed picks the statistics."""
    ranks = rng.sample(range(1, 4), 3)
    total_order = relations.order_from_ranks(ranks)
    k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
    extensible = [
        u for u in (Relation.from_mask(3, m) for m in range(1, 1 << 9))
        if relations.is_kappa_extensible(u)
    ]
    u = rng.choice(extensible)
    closure = relations.kappa_closure(u)
    a = Relation.from_mask(3, rng.randrange(1 << 9))
    b = Relation.from_mask(3, rng.randrange(1 << 9))
    stat = statistics.MajInvStatistic
    return [
        DeepCase(f"inv'_S, S ranks {ranks}", stat(relations.empty_relation(3), total_order),
                 Composition((5, 4, 4)), "q_multinomial"),
        DeepCase(f"{k1}-maj", statistics.k_maj_stat(4, k1),
                 Composition((3, 3, 2, 2)), "q_multinomial"),
        DeepCase(f"{k2}-maj", statistics.k_maj_stat(4, k2),
                 Composition((3, 3, 3, 2)), "q_multinomial"),
        DeepCase(f"(U, closure - U), U mask {u.mask}", stat(u, closure - u),
                 Composition((4, 4, 3)), "product_formula"),
        DeepCase(f"(U, V), masks {a.mask} and {b.mask}", stat(a, b),
                 Composition((4, 4, 4)), "prefix_dp"),
    ]


def prefix_dp_distribution(u: Relation, v: Relation, comp: Composition) -> list[int]:
    """Coefficients of sum q**(maj'_U + inv'_V) over the class, by appending
    letters: putting y after a prefix of length n that ends in x adds
    n*[x U y] + sum over z of used_z*[z V y].  Independent of majinv's
    enumeration and evaluation code."""
    r = comp.size
    layer = {((0,) * r, -1): {0: 1}}
    for n in range(comp.weight):
        nxt: dict = defaultdict(lambda: defaultdict(int))
        for (used, x), poly in layer.items():
            for y in range(r):
                if used[y] == comp.counts[y]:
                    continue
                rise = n if x >= 0 and (u.rows[x] >> y) & 1 else 0
                rise += sum(used[z] for z in range(r) if (v.rows[z] >> y) & 1)
                key = (used[:y] + (used[y] + 1,) + used[y + 1:], y)
                target = nxt[key]
                for d, c in poly.items():
                    target[d + rise] += c
        layer = nxt
    total: dict = defaultdict(int)
    for poly in layer.values():
        for d, c in poly.items():
            total[d] += c
    return [total[d] for d in range(max(total) + 1)]


def _deep_reference(case: DeepCase) -> tuple[int, ...]:
    if case.reference == "q_multinomial":
        return qseries.q_multinomial(case.comp).coeffs
    u, v = case.stat.maj_relation, case.stat.inv_relation
    if case.reference == "product_formula":
        bip = relations.extract_bipartition(u | v)
        return qseries.bipartitional_product_formula(case.comp, bip).coeffs
    return tuple(prefix_dp_distribution(u, v, case.comp))  # arbitrary (U, V)


def run_deep(cases: list[DeepCase], timed, gate) -> int:
    """Work: words in the input classes."""
    work = 0
    for case in cases:
        with timed:
            poly = qseries.distribution(case.stat, case.comp)
        size = class_size(case.comp)
        gate.check(poly.coeffs == _deep_reference(case), f"deep {case.label}: {case.reference}")
        gate.check(sum(poly.coeffs) == size, f"deep {case.label}: sums to class size")
        work += size
    return work


# ---------------------------------------------------------------------------
# psi: bulk transform.psi / psi_inverse round trips plus mahonian.verify_psi

PSI_RELATIONS = 48
PSI_MAX_LEN = 7


@dataclass(frozen=True)
class PsiInputs:
    relations: tuple[Relation, ...]
    words: tuple[Word, ...]


def setup_psi(rng) -> PsiInputs:
    masks = rng.sample(range(1 << 9), PSI_RELATIONS)
    return PsiInputs(
        tuple(Relation.from_mask(3, m) for m in masks),
        tuple(w for n in range(PSI_MAX_LEN + 1) for w in words_of_length(3, n)),
    )


def run_psi(inputs: PsiInputs, timed, gate) -> int:
    """Work: words round-tripped through psi and psi_inverse."""
    words = inputs.words
    for u in inputs.relations:
        with timed:
            psi, psi_inverse = transform.psi, transform.psi_inverse  # traced names
            images = [psi(u, w) for w in words]
            back = [psi_inverse(u, img) for img in images]
        round_trips = classes = lasts = 0
        for w, img, w2 in zip(words, images, back):
            round_trips += w2.letters == w.letters
            classes += sorted(img.letters) == sorted(w.letters)
            lasts += img.letters[-1:] == w.letters[-1:]
        gate.check_many(round_trips, len(words), f"psi mask {u.mask}: psi_inverse(psi(w)) == w")
        gate.check_many(classes, len(words), f"psi mask {u.mask}: class preserved")
        gate.check_many(lasts, len(words), f"psi mask {u.mask}: last letter fixed")
    with timed:
        report = mahonian.verify_psi(3, 6)
    gate.check(report.ok, "verify_psi(3, 6) ok")
    gate.check(report.witnesses["kappa_extension_pairs"] == 1701, "verify_psi pairs")
    gate.report(report.checked, len(report.violations))
    return len(inputs.relations) * len(words)


WORKLOADS = {
    "sweep": (setup_sweep, run_sweep),
    "classes": (setup_classes, run_classes),
    "deep": (setup_deep, run_deep),
    "psi": (setup_psi, run_psi),
}
