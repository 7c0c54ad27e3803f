"""Exhaustive verification of the equidistribution and classification results.

Every verifier sweeps a finite space (relations, relation pairs, words) and
returns a Report of what was checked and which instances, if any, violated
the claimed property.  Violations are collected, never raised: a failed
check is data.

The pair sweeps are exact but large (2**(r*r) squared pairs), so they are
staged by weight and seeded by heredity.  Dropping letter k from a pair
(X, Y) on [r] and relabelling the rest in order gives a pair on [r-1], and
every class that omits k is a class of that restriction.  So the sweep at
size r first sweeps size r-1, and at weight n its candidates are the
survivors of weight n-1 (at weight 2, every pair) whose r restrictions all
survived weight n at size r-1; size 1 has no restriction.  The candidates
are then scored only on the classes of weight n that use all r letters,
through per-word contribution tables indexed by relation bitmasks: a pair
survives when each class carries the same multiset of values as its target
statistic.  Below weight r there is no such class, and heredity alone
decides.  The seeding is exact, since the classes of weight n are those that
use every letter and those that omit one, and the latter are exactly the
classes of the restrictions.  Weights 0 and 1 hold for every pair, since a
word of length <= 1 has no descent and no inversion.  The tables implement
the same definitions as the statistics module and the test suite
cross-checks the two routes; it also keeps the unseeded sweep, which scores
every pair on every class, as the oracle of this one.

The sweeps, the closure suite and verify_psi test kappa-extension on masks,
against one cached array of relations.kappa_bounds per alphabet size, and
take their words from one class-grouped list.

verify_psi checks the transformation theorem once per U, not once per (U, S).
The kappa-extensions of U form a cube: S = need | F for every F within the
free cells, those in neither need nor forbid.  With pc[w] and ac[w] the pair
and adjacency cell rows of a word w, inv'_S(w) = pc[w] . bits(S) and
maj'_U(w) = ac[w] . bits(U); and U lies in need, so in every S.  Hence

  inv'_S(psi w) - maj'_U(w) - inv'_{S minus U}(w) = D[w] . bits(S) + e[w],

with D = pc[psi w] - pc[w] and e = (pc[w] - ac[w]) . bits(U).  That is linear
in the bits of S, so it is 0 on the whole cube iff it is 0 at S = need and
D[w] is 0 in every free cell.  Only a U that fails this has its cube walked,
to list each failing S.  The test suite keeps the per-(U, S) loop over
2**(r*r)-row tables as the oracle of this check.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import qseries
from .relations import (
    GMap,
    INF,
    Relation,
    empty_relation,
    is_bipartitional,
    is_kappa_extensible,
    is_kappa_extension,
    is_total_order,
    kappa_bounds,
    kappa_closure,
    extract_bipartition,
    divides,
    natural_order,
    total_orders,
)
from .statistics import (
    MajInvStatistic,
    inv_stat,
    maj_stat,
    marked_successor_gmap,
    gmap_stat,
    ratio_gmap,
    stat_fg,
    subset_stat,
    subset_stat_total,
)
from .transform import psi_images
from .words import (
    Composition,
    class_size,
    compositions_of_weight,
    compositions_up_to,
    enumerate_class,
    words_of_length,
)

RELATION_ENUM_CAP = 4  # single-relation sweeps walk 2**(r*r) masks
PAIR_SWEEP_CAP = 3  # pair sweeps walk 4**(r*r) ordered pairs
STAGE_CELL_BUDGET = 1 << 16  # word cells per sweep chunk; bounds the temporaries
WORD_BYTES = 96  # a listed Word takes this plus 8 bytes per letter, by tracemalloc
# letters of the words a pair sweep tables, over all its sizes and weights.  A
# sweep's time grows with them: theorem-majinv took 0.33 s at r = 1, W = 1200
# (720,599 letters) and 1.4 s at r = 3, W = 9 (234,660; each word there has
# 512 mask rows), on 2 vCPUs.  r = 3, W = 10 (804,690) is refused.
SWEEP_LETTER_BUDGET = 3 << 18
# verify_psi's kappa-extensible relations x words x max_len.  At the edge, on
# 2 vCPUs: r = 1, max_len 2895 took 3.7 s (the per-word cell rows dominate);
# r = 2, max_len 15 0.9 s; r = 3, max_len 8 0.4 s; r = 4, max_len 5 1.7 s,
# 1.2 s of it the kappa bounds of the 65,536 relations on [4].
PSI_WORK_BUDGET = 1 << 24


@dataclass
class Report:
    """Outcome of one exhaustive verification sweep."""

    checked: int = 0
    violations: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return asdict(self)


def _stopwatch(verify):
    """Stamp the wall time of a verifier into its Report's elapsed_ms."""

    @functools.wraps(verify)
    def timed(*args) -> Report:
        t0 = time.perf_counter()
        report = verify(*args)
        report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
        return report

    return timed


def _check_size(r: int, cap: int) -> None:
    if not 1 <= r <= cap:
        raise ValueError(
            f"refusing alphabet size {r}: size must be >= 1 and is capped at {cap}"
        )


def enumerate_relations(r: int):
    """All 2**(r*r) relations on [r] in increasing bitmask order."""
    _check_size(r, RELATION_ENUM_CAP)
    for mask in range(1 << (r * r)):
        yield Relation.from_mask(r, mask)


def enumerate_mahonian_stats(s: Relation):
    """The r! mahonian maj-inv statistics writable below the total order s.

    For each map g with g(y) > y the yielded statistic is (U, s minus U)
    with U = {(x,y) : f(x) >= g(f(y))} and f the ranking of s from below.
    """
    if not is_total_order(s):
        raise ValueError("statistic enumeration needs a total order")
    r = s.size
    f = tuple(1 + s.rows[x].bit_count() for x in range(r))
    choices = [list(range(b + 1, r + 1)) + [INF] for b in range(1, r + 1)]
    for combo in itertools.product(*choices):
        yield gmap_stat(GMap(f, combo))


def verify_equidistribution(u: Relation, s: Relation, max_weight: int) -> bool:
    """True iff maj'_U + inv'_{S minus U} matches inv'_S on every class of
    weight <= max_weight.  Plain reference implementation."""
    if u.size != s.size:
        raise ValueError("alphabet size mismatch")
    stat = MajInvStatistic(u, s - u)
    ref = MajInvStatistic(empty_relation(s.size), s)
    return qseries.distributions_up_to(stat, max_weight) == qseries.distributions_up_to(
        ref, max_weight
    )


# ---------------------------------------------------------------------------
# Bitmask-table machinery shared by the pair sweeps


def _pair_cells(r: int, letters: tuple[int, ...]) -> list[int]:
    """Cell (x-1)*r + (y-1) counts the pairs i < j with letters (x, y)."""
    cells = [0] * (r * r)
    seen = [0] * r  # seen[x-1]: the x's before the current position
    for y in letters:
        col = y - 1
        for x in range(r):
            cells[x * r + col] += seen[x]
        seen[col] += 1
    return cells


def _adj_cells(r: int, letters: tuple[int, ...]) -> list[int]:
    """Cell (x-1)*r + (y-1) sums the positions i with adjacent letters (x, y)."""
    cells = [0] * (r * r)
    for i in range(len(letters) - 1):
        cells[(letters[i] - 1) * r + letters[i + 1] - 1] += i + 1
    return cells


def _mask_table(cells: np.ndarray) -> np.ndarray:
    """Row ``mask`` holds, per word, the cell sum over the bits of mask."""
    nwords, r2 = cells.shape
    nmasks = 1 << r2
    cols = np.ascontiguousarray(cells.T)
    tab = np.zeros((nmasks, nwords), dtype=np.int64)
    for mask in range(1, nmasks):
        low = mask & -mask
        tab[mask] = tab[mask ^ low] + cols[low.bit_length() - 1]
    return tab


def _check_budget(costs, budget: int, unit: str, what: str) -> None:
    """Refuse to do ``what`` when the ``costs`` summed pass ``budget``.  The
    costs are read lazily, so the refusal comes as soon as the sum passes."""
    total = 0
    for cost in costs:
        total += cost
        if total > budget:
            raise ValueError(
                f"refusing to {what}: that takes {total:,} or more {unit}, "
                f"past the budget of {budget:,} {unit}"
            )


def _check_word_bytes(counts, word_bytes: int, what: str) -> None:
    """Refuse before ``what`` takes ``word_bytes`` bytes per word, for the
    word counts ``counts`` summed, when together they would take more than
    qseries.BYTE_BUDGET bytes."""
    _check_budget(
        (count * word_bytes for count in counts), qseries.BYTE_BUDGET, "bytes", what
    )


def _words_of_lengths(r: int, lengths: range):
    """The number of words over [r] of each length in ``lengths``."""
    return (r ** min(n, 64) for n in lengths)  # for r >= 2, r**64 exceeds any budget


def _full_support_words(r: int, n: int) -> int:
    """The number of words of length n over [r] that use every letter, by
    inclusion-exclusion.  Past length 64 it is counted at 64, which for
    r >= 2 already exceeds any budget."""
    n = min(n, 64)
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** n for j in range(r + 1))


def _stat_tables(r: int, letters_list: list[tuple[int, ...]]):
    """The inv' and maj' mask tables of the words: row ``mask`` holds
    inv'_mask (resp. maj'_mask) of every word.  Each cell array is dropped
    once its table is built."""
    return tuple(
        _mask_table(np.array([cells(r, ls) for ls in letters_list], dtype=np.int64))
        for cells in (_pair_cells, _adj_cells)
    )


def _class_words(classes) -> tuple[list[tuple[int, ...]], list[int]]:
    """The letters of every word of the ``classes``, grouped by class, with
    the class index of each word.  With classes in ascending weight, every
    prefix of a word is listed before the word."""
    letters_list: list[tuple[int, ...]] = []
    class_of: list[int] = []
    for ci, c in enumerate(classes):
        for w in enumerate_class(c):
            letters_list.append(w.letters)
            class_of.append(ci)
    return letters_list, class_of


def _weight_tables(r: int, n: int):
    """Class keys and bitmask statistic tables of the words of weight n over
    [r] that use every letter.

    Words are grouped by class; ``keybase`` holds class_index * stride with a
    stride above every maj + inv value of a weight-n word.
    """
    letters_list, class_of = _class_words(
        c for c in compositions_of_weight(r, n) if all(c.counts)
    )
    stride = 1 << (n * (n - 1)).bit_length()
    keybase = np.array(class_of, dtype=np.int64) * stride
    return (keybase, *_stat_tables(r, letters_list))


@functools.lru_cache(maxsize=PAIR_SWEEP_CAP)
def _restriction_table(r: int) -> np.ndarray:
    """Row k maps every mask on [r] to the mask of its restriction to [r]
    minus the letter k + 1, the other letters relabelled 1..r-1 in order.
    Cached and read-only."""
    masks = np.arange(1 << (r * r))
    table = np.zeros((r, masks.size), dtype=np.int64)
    for k in range(r):
        rest = [x for x in range(r) if x != k]
        for i, x in enumerate(rest):
            for j, y in enumerate(rest):
                table[k] |= ((masks >> (x * r + y)) & 1) << (i * (r - 1) + j)
    table.flags.writeable = False
    return table


def _score(r: int, n: int, alive: np.ndarray, masks_of) -> np.ndarray:
    """The flat pair indices of ``alive`` whose statistic carries the same
    multiset of values as its target on every class of weight n over [r]
    that uses all r letters."""
    keybase, invtab, majtab = _weight_tables(r, n)
    want = np.sort(invtab + keybase, axis=1)
    bits = r * r
    step = max(1, STAGE_CELL_BUDGET // keybase.size)
    kept = [np.empty(0, dtype=np.int64)]
    for lo in range(0, alive.size, step):
        idx = alive[lo : lo + step]
        maj, inv, target = masks_of(r, idx >> bits, idx & ((1 << bits) - 1))
        got = np.sort(majtab[maj] + invtab[inv] + keybase, axis=1)
        kept.append(idx[(got == want[target]).all(axis=1)])
    return np.concatenate(kept)


def _sweep_levels(r: int, max_weight: int, masks_of):
    """The pass arrays of the pairs on [r] after each weight 2..max_weight,
    each a boolean array indexed by (X, Y), with the survivor count and the
    scored count per weight.  Sweeps [r-1] first, for the seeding of the
    module docstring."""
    side = 1 << (r * r)
    if r > 1:
        below = _sweep_levels(r - 1, max_weight, masks_of)[0]
        restrict = _restriction_table(r)
    passed = np.ones(side * side, dtype=bool)  # weights 0 and 1: every pair
    passes, survivors, scored = [], {}, {}
    for n in range(2, max_weight + 1):
        if r > 1:
            # entry [X, Y] of below[n - 2][d][:, d] is the verdict on the
            # restriction of (X, Y) that row d of the table gives
            passed = passed & np.logical_and.reduce(
                [below[n - 2][d][:, d] for d in restrict]
            ).ravel()
        scored[n] = 0
        if n >= r:  # below weight r no class uses every letter
            alive = np.flatnonzero(passed)
            scored[n] = int(alive.size)
            passed = np.zeros(side * side, dtype=bool)
            passed[_score(r, n, alive, masks_of)] = True
        survivors[n] = int(np.count_nonzero(passed))
        passes.append(passed.reshape(side, side))
    return passes, survivors, scored


def _staged_sweep(r: int, max_weight: int, masks_of):
    """Sweep the ordered mask pairs (X, Y) on [r], flat index X * 2**(r*r) + Y.

    ``masks_of(k, x, y)`` maps mask arrays on [k] to the masks (A, B, T) of
    a statistic maj'_A + inv'_B and its target inv'_T.  A pair passes when on
    every class of weight 2..max_weight the two carry the same multiset of
    values.  Returns the boolean pass array over flat indices, and per weight
    the survivor count and the number of pairs scored on the classes that use
    all r letters.
    """
    # the inv', maj' and sorted target tables of one level's weight are held
    # at once; each level tables the most words at the last weight
    for k in range(1, r + 1):
        words = (_full_support_words(k, max_weight),)
        _check_word_bytes(words, 3 * 8 << (k * k), "build 3 bitmask tables")
    tabled = (
        n * _full_support_words(k, n)
        for k in range(1, r + 1)
        for n in range(max(2, k), max_weight + 1)
    )
    _check_budget(tabled, SWEEP_LETTER_BUDGET, "tabled letters", "sweep")
    passes, survivors, scored = _sweep_levels(r, max_weight, masks_of)
    return passes[-1].ravel(), survivors, scored


@functools.lru_cache(maxsize=RELATION_ENUM_CAP)
def _kappa_bounds_table(r: int) -> np.ndarray:
    """Row u holds kappa_bounds of the relation with mask u, as the columns
    (need, forbid).  Cached and read-only, since every caller shares the one
    array."""
    table = np.array(
        [kappa_bounds(Relation.from_mask(r, u)) for u in range(1 << (r * r))],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


def _extends(s, bounds) -> np.ndarray:
    """Whether S kappa-extends U, for masks ``s`` and (need, forbid) rows
    ``bounds`` of _kappa_bounds_table, broadcast against each other."""
    need, forbid = bounds[..., 0], bounds[..., 1]
    return (s & need == need) & (s & forbid == 0)


def _pair_violations(r: int, got: np.ndarray, expected: np.ndarray, keys) -> list:
    """One violation per flat pair index where got and expected differ, in
    (first mask, second mask) order."""
    second, got_key, expected_key = keys
    bits = r * r
    full = (1 << bits) - 1
    return [
        {
            "u": Relation.from_mask(r, i >> bits).to_json_dict(),
            second: Relation.from_mask(r, i & full).to_json_dict(),
            got_key: bool(got[i]),
            expected_key: bool(expected[i]),
        }
        for i in np.flatnonzero(got != expected).tolist()
    ]


def _check_max_weight(max_weight: int) -> None:
    if max_weight < 2:
        raise ValueError(
            f"max weight must be >= 2, got {max_weight}: a certificate up to "
            "weight 1 is vacuous, since every statistic passes it"
        )


@_stopwatch
def verify_theorem_majinv(r: int, max_weight: int) -> Report:
    """Sweep every ordered relation pair (U, S) on [r] and confirm that
    equidistribution up to max_weight holds exactly for kappa-extensions."""
    _check_size(r, PAIR_SWEEP_CAP)
    _check_max_weight(max_weight)
    got, survivors, scored = _staged_sweep(
        r, max_weight, lambda k, u, s: (u, s & ~u, s)
    )
    bounds = _kappa_bounds_table(r)
    expected = _extends(np.arange(len(bounds)), bounds[:, None]).ravel()
    report = Report(checked=got.size)
    report.violations = _pair_violations(
        r, got, expected, ("s", "equidistributed", "kappa_extension")
    )
    report.witnesses = {
        "kappa_extension_pairs": int(expected.sum()),
        "equidistributed_pairs": int(got.sum()),
        "max_weight": max_weight,
        "survivors_by_weight": survivors,
        "scored_by_weight": scored,
    }
    return report


@_stopwatch
def verify_classification(r: int, max_weight: int) -> Report:
    """Sweep every pair (U, V): the statistic maj'_U + inv'_V is mahonian up
    to max_weight exactly when U, V are disjoint, U join V is a total order
    and that order kappa-extends U; the count of winners must be r! * r!."""
    _check_size(r, PAIR_SWEEP_CAP)
    _check_max_weight(max_weight)
    # inv'_{natural order} is inv, whose class distributions are q-multinomial;
    # each size k of the seeding targets the natural order of [k]
    got, survivors, scored = _staged_sweep(
        r, max_weight, lambda k, u, v: (u, v, natural_order(k).mask)
    )

    bounds = _kappa_bounds_table(r)
    expected = np.zeros((len(bounds), len(bounds)), dtype=bool)
    for s in (order.mask for order in total_orders(r)):
        u = np.flatnonzero(_extends(s, bounds))  # each such U lies inside S
        expected[u, s ^ u] = True

    report = Report(checked=got.size)
    report.violations = _pair_violations(
        r, got, expected.ravel(), ("v", "mahonian", "classified")
    )
    mahonian_pairs = int(got.sum())
    expected_count = math.factorial(r) ** 2
    if mahonian_pairs != expected_count:
        report.violations.append(
            {
                "count": mahonian_pairs,
                "expected_count": expected_count,
            }
        )
    report.witnesses = {
        "mahonian_pairs": mahonian_pairs,
        "expected_count": expected_count,
        "max_weight": max_weight,
        "survivors_by_weight": survivors,
        "scored_by_weight": scored,
    }
    return report


@_stopwatch
def verify_distinctness(r: int, max_len: int) -> Report:
    """Separate every pair of classified mahonian statistics by a word of
    length <= max_len; unseparated pairs are reported as violations."""
    _check_size(r, PAIR_SWEEP_CAP)
    lengths = range(1, max_len + 1)
    word_bytes = WORD_BYTES + 8 * max_len
    _check_word_bytes(_words_of_lengths(r, lengths), word_bytes, "list the words")
    stats = [st for order in total_orders(r) for st in enumerate_mahonian_stats(order)]
    words = [w for n in lengths for w in words_of_length(r, n)]
    report = Report(checked=len(stats) * (len(stats) - 1) // 2)
    separators: dict[str, str] = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(stats), 2):
        witness = next((w for w in words if a.evaluate(w) != b.evaluate(w)), None)
        if witness is None:
            report.violations.append({"stat_a": _stat_json(a), "stat_b": _stat_json(b)})
        else:
            separators[f"{i},{j}"] = witness.text()
    report.witnesses = {
        "statistics": [_stat_json(st) for st in stats],
        "first_separators": separators,
    }
    return report


def _stat_json(stat: MajInvStatistic) -> dict:
    return {
        "u": stat.maj_relation.to_json_dict(),
        "v": stat.inv_relation.to_json_dict(),
    }


@_stopwatch
def verify_kappa_machinery(r: int) -> Report:
    """Exhaustively confirm, on all relations on [r]:

    - bipartitional is equivalent to being a kappa-extension of oneself;
    - the three characterizations of kappa-extensibility agree (transitive
      plus no forbidden quadruple; the closure extends; some extension exists);
    - for extensible U the closure is bipartitional and contained in every
      extension.

    The chain {(1,2),(2,3)} and the divisibility relation on [9] are also
    checked to be rejected.
    """
    _check_size(r, PAIR_SWEEP_CAP)
    rels = list(enumerate_relations(r))
    masks = np.arange(len(rels))
    bounds = _kappa_bounds_table(r)
    report = Report(checked=len(rels))
    extensible_count = 0
    bipartitional_count = 0
    for u in rels:
        bip = is_bipartitional(u)
        bipartitional_count += bip
        if bip != is_kappa_extension(u, u):
            report.violations.append(
                {"u": u.to_json_dict(), "property": "self-extension mismatch"}
            )
        closure = kappa_closure(u)
        ext_quadruple = is_kappa_extensible(u)
        ext_closure = is_kappa_extension(closure, u)
        extensions = [rels[s] for s in np.flatnonzero(_extends(masks, bounds[u.mask]))]
        if not (ext_quadruple == ext_closure == bool(extensions)):
            report.violations.append(
                {"u": u.to_json_dict(), "property": "extensibility criteria disagree"}
            )
        if ext_quadruple:
            extensible_count += 1
            if not is_bipartitional(closure):
                report.violations.append(
                    {"u": u.to_json_dict(), "property": "closure not bipartitional"}
                )
            for s in extensions:
                if not closure.issubset(s):
                    report.violations.append(
                        {
                            "u": u.to_json_dict(),
                            "s": s.to_json_dict(),
                            "property": "closure not minimal",
                        }
                    )
    for name, rel in (
        ("chain", Relation.from_pairs(3, [(1, 2), (2, 3)])),
        ("divides-9", divides(9)),
    ):
        report.checked += 1
        if is_kappa_extensible(rel):
            report.violations.append(
                {"u": rel.to_json_dict(), "property": f"{name} wrongly extensible"}
            )
    report.witnesses = {
        "kappa_extensible": extensible_count,
        "bipartitional": bipartitional_count,
    }
    return report


@_stopwatch
def verify_product_formula(r: int, max_weight: int) -> Report:
    """Match the closed product form of the closure distribution against the
    class distribution of qseries.distribution for every kappa-extensible
    relation on [r]."""
    _check_size(r, PAIR_SWEEP_CAP)
    _check_max_weight(max_weight)
    comps = compositions_up_to(r, max_weight)
    report = Report()
    extensible = 0
    for u in enumerate_relations(r):
        if not is_kappa_extensible(u):
            continue
        extensible += 1
        closure = kappa_closure(u)
        bip = extract_bipartition(closure)
        stat = MajInvStatistic(u, closure - u)
        for c, lhs in zip(comps, qseries.distributions_up_to(stat, max_weight)):
            report.checked += 1
            rhs = qseries.bipartitional_product_formula(c, bip)
            if lhs != rhs:
                report.violations.append(
                    {
                        "u": u.to_json_dict(),
                        "composition": c.text(),
                        "distribution": lhs.to_json_dict(),
                        "product_formula": rhs.to_json_dict(),
                    }
                )
    report.witnesses = {"kappa_extensible": extensible, "max_weight": max_weight}
    return report


@_stopwatch
def verify_macmahon(r: int, max_weight: int) -> Report:
    """Check dist(inv) = dist(maj) = q-multinomial on every class up to
    max_weight over [r]."""
    _check_size(r, RELATION_ENUM_CAP)
    _check_max_weight(max_weight)
    inv = inv_stat(r)
    maj = maj_stat(r)
    report = Report()
    for c, d_inv, d_maj in zip(
        compositions_up_to(r, max_weight),
        qseries.distributions_up_to(inv, max_weight),
        qseries.distributions_up_to(maj, max_weight),
    ):
        report.checked += 1
        qm = qseries.q_multinomial(c)
        if not (d_inv == d_maj == qm):
            report.violations.append(
                {
                    "composition": c.text(),
                    "inv": d_inv.to_json_dict(),
                    "maj": d_maj.to_json_dict(),
                    "q_multinomial": qm.to_json_dict(),
                }
            )
    report.witnesses = {"max_weight": max_weight}
    return report


def _bits(masks, r: int) -> np.ndarray:
    """Row i holds the r*r bits of masks[i], as 0/1 in one column per cell."""
    return (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(r * r)) & 1


def _psi_words(r: int, max_len: int):
    """The words up to max_len as _class_words lists them, with their class
    indices, last letters (0 for the empty word) and pair and adjacency cell
    rows; and ``code_of[i]``, the place of word i when the words are listed
    by length, then by base-r code as transform.psi_images lists them."""
    lengths = range(max_len + 1)
    letters_list, class_of = _class_words(
        c for n in lengths for c in compositions_of_weight(r, n)
    )
    last = np.array([ls[-1] if ls else 0 for ls in letters_list], dtype=np.int64)
    # a cell count, and a difference of two, lies within max_len**2 of 0
    cell_type = np.min_scalar_type(-max_len * max_len - 1)
    pc = np.array([_pair_cells(r, ls) for ls in letters_list], dtype=cell_type)
    ac = np.array([_adj_cells(r, ls) for ls in letters_list], dtype=cell_type)
    # the list runs by weight, so the words of length n are a slice of it
    code_of, start = [], 0
    for n in lengths:
        code_of.append(_places(np.array(letters_list[start : start + r**n]), r, start))
        start += r**n
    return letters_list, np.array(class_of), last, pc, ac, np.concatenate(code_of)


def _places(words: np.ndarray, r: int, start: int) -> np.ndarray:
    """start plus the base-r code of each word along the last axis, its
    letters less one as the digits, most significant first.  Formed in
    float64, exact below 2**53, so that BLAS does the sums."""
    n = words.shape[-1]
    codes = (words - 1.0) @ r ** np.arange(n - 1.0, -1.0, -1.0)
    return codes.astype(np.int64) + start


def _image_places(images, r: int) -> np.ndarray:
    """Row j: the place, in the listing by length and code, of the image of
    each word there under the j-th relation of a psi_images chunk."""
    starts = np.cumsum([0] + [img.shape[1] for img in images])
    return np.concatenate(
        [_places(img, r, start) for img, start in zip(images, starts)], axis=1
    )


def _cube_holds(pc, ac, image_idx, u, need, free) -> np.ndarray:
    """Per U, whether inv'_S(psi w) = maj'_U(w) + inv'_{S minus U}(w) for
    every word w and every S of U's cube, by the test of the module
    docstring: it holds at S = need, and psi moves no pair count of a free
    cell.  ``image_idx[j, i]`` is the word psi sends word i to under the j-th
    U, and ``u``, ``need`` and ``free`` hold the cell bits of each U."""
    # float64 sums are exact for these small integers and run on BLAS
    at_need = pc @ need.T.astype(np.float64)  # words x U
    differs = (
        np.take_along_axis(at_need, image_idx.T, axis=0)
        - at_need
        + (pc - ac) @ u.T.astype(np.float64)
    )
    moved = (np.take(pc, image_idx, axis=0) != pc) & free[:, None, :].astype(bool)
    return ~(differs != 0).any(axis=0) & ~moved.any(axis=(1, 2))


def _cube_failures(pc, ac, image, r: int, u: int, need: int, free: int):
    """(S, first failing word) for each S of U's cube on which the identity
    fails, S ascending; ``image[i]`` is the word psi sends word i to."""
    cube = [need]
    sub = (0 - free) & free  # the subsets of free, counting up
    while sub:
        cube.append(need | sub)
        sub = (sub - free) & free
    diff = pc[image].astype(np.int64) - pc
    e = (pc - ac).astype(np.int64) @ _bits([u], r)[0]
    bad = diff @ _bits(cube, r).T + e[:, None] != 0
    return [(s, int(col.argmax())) for s, col in zip(cube, bad.T) if col.any()]


@_stopwatch
def verify_psi(r: int, max_len: int) -> Report:
    """For every kappa-extensible U on [r] and every word of length <= max_len:
    the transformation permutes each rearrangement class, fixes the last
    letter, and carries maj'_U + inv'_{S minus U} to inv'_S for every
    kappa-extension S of U.

    The images come from ``transform.psi_images``, a chunk of U at a time.
    The identity is checked once per U over its whole cube of extensions;
    only a U that fails has its cube walked, to list each failing S with its
    first failing word.
    """
    _check_size(r, RELATION_ENUM_CAP)
    lengths = range(max_len + 1)
    bounds = _kappa_bounds_table(r)
    extensible = np.flatnonzero(bounds[:, 0] & bounds[:, 1] == 0)
    steps = len(extensible) * max_len
    _check_budget(
        (count * steps for count in _words_of_lengths(r, lengths)),
        PSI_WORK_BUDGET,
        "image letters",
        "check psi",
    )
    # per word: its letter tuple and, for one relation, its image letters and
    # their gather indices; its pc and ac rows; its place, class and last letter
    _check_word_bytes(
        _words_of_lengths(r, lengths),
        WORD_BYTES + 17 * max_len + 2 * 8 * r * r + 48,
        "tabulate psi",
    )
    letters_list, class_arr, last, pc, ac, code_of = _psi_words(r, max_len)
    nwords = len(letters_list)
    index_of = np.empty_like(code_of)
    index_of[code_of] = np.arange(nwords)
    full = (1 << (r * r)) - 1

    report = Report()
    pair_count = 0
    for chunk, images in psi_images(r, extensible, max_len):
        image_idx = index_of[_image_places(images, r)[:, code_of]]
        bijection = (class_arr[image_idx] == class_arr).all(axis=1) & (
            np.sort(image_idx, axis=1) == np.arange(nwords)
        ).all(axis=1)
        fixed = (last[image_idx] == last).all(axis=1)
        need, forbid = bounds[chunk, 0], bounds[chunk, 1]
        free = full & ~(need | forbid)
        free_bits = _bits(free, r)
        holds = _cube_holds(
            pc, ac, image_idx, _bits(chunk, r), _bits(need, r), free_bits
        )
        pairs = int((1 << free_bits.sum(axis=1)).sum())
        report.checked += len(chunk) + pairs
        pair_count += pairs
        for j in np.flatnonzero(~(bijection & fixed & holds)).tolist():
            u = int(chunk[j])
            u_json = Relation.from_mask(r, u).to_json_dict()
            for passed, prop in (
                (bijection[j], "not a class bijection"),
                (fixed[j], "last letter moved"),
            ):
                if not passed:
                    report.violations.append({"u": u_json, "property": prop})
            if holds[j]:
                continue
            for s, bad in _cube_failures(
                pc, ac, image_idx[j], r, u, int(need[j]), int(free[j])
            ):
                report.violations.append(
                    {
                        "u": u_json,
                        "s": Relation.from_mask(r, s).to_json_dict(),
                        "word": " ".join(map(str, letters_list[bad])),
                        "property": "statistic identity fails",
                    }
                )
    report.witnesses = {
        "kappa_extensible": len(extensible),
        "kappa_extension_pairs": pair_count,
        "words": nwords,
        "max_len": max_len,
    }
    return report


@_stopwatch
def verify_applications(max_weight: int) -> Report:
    """Check the named statistic families at r = 4 (and the parity statistic
    at r = 3 and 4): mahonian certificates up to max_weight, the closed
    distribution of the subset statistic, and the permutation-class formula
    for the even/odd instance."""
    _check_max_weight(max_weight)
    r = 4
    report = Report()
    letters = list(range(1, r + 1))
    subsets = [
        frozenset(c)
        for size in range(r + 1)
        for c in itertools.combinations(letters, size)
    ]

    def check(name: str, condition: bool, details=dict) -> None:
        # details() builds the rest of the violation, only when one is found
        report.checked += 1
        if not condition:
            report.violations.append({"family": name, **details()})

    for k in (1, Fraction(3, 2), 2, r):
        stat = gmap_stat(ratio_gmap(r, k))
        check(
            "ratio",
            qseries.is_mahonian_up_to(stat, max_weight),
            lambda: {"k": str(k)},
        )
    sweep = [w for n in range(5) for w in words_of_length(r, n)]
    maj_ref = maj_stat(r)
    inv_ref = inv_stat(r)
    check(
        "ratio k=1 is maj",
        all(stat_fg(ratio_gmap(r, 1), w) == maj_ref.evaluate(w) for w in sweep),
    )
    check(
        "ratio k=r is inv",
        all(stat_fg(ratio_gmap(r, r), w) == inv_ref.evaluate(w) for w in sweep),
    )

    for marked in subsets:
        stat = gmap_stat(marked_successor_gmap(r, marked))
        check(
            "marked-successor",
            qseries.is_mahonian_up_to(stat, max_weight),
            lambda: {"marked": sorted(marked)},
        )

    for a in subsets:
        for b in subsets:
            check(
                "subset-total",
                qseries.is_mahonian_up_to(subset_stat_total(r, a, b), max_weight),
                lambda: {"a": sorted(a), "b": sorted(b)},
            )

    comps = compositions_up_to(r, max_weight)
    for a in subsets:
        complement = [x for x in letters if x not in a]
        expected = []
        for c in comps:
            parts = tuple(c.counts[x - 1] for x in sorted(a, reverse=True))
            rest = tuple(c.counts[x - 1] for x in complement)
            coeff = class_size(Composition(rest)) if rest else 1
            expected.append(
                coeff * qseries.q_multinomial(Composition(parts + (sum(rest),)))
            )
        for b in subsets:
            got = qseries.distributions_up_to(subset_stat(r, a, b), max_weight)
            for c, got_c, expected_c in zip(comps, got, expected):
                check(
                    "subset-distribution",
                    got_c == expected_c,
                    lambda: {"a": sorted(a), "b": sorted(b), "composition": c.text()},
                )

    for size in (3, 4):
        evens = [x for x in range(1, size + 1) if x % 2 == 0]
        odds = [x for x in range(1, size + 1) if x % 2 == 1]
        half = (size + 1) // 2
        expected = math.factorial(half) * qseries.q_factorial(size).exact_div(
            qseries.q_factorial(half)
        )
        got = qseries.distribution(
            subset_stat(size, evens, odds), Composition((1,) * size)
        )
        check("parity-permutations", got == expected, lambda: {"r": size})

    report.witnesses = {"alphabet": r, "max_weight": max_weight}
    return report
