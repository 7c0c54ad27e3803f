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
from .transform import _psi_letters
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


def _check_word_bytes(counts, word_bytes: int, what: str) -> None:
    """Refuse before ``what`` takes ``word_bytes`` bytes per word, for the
    word counts ``counts`` summed, when together they would take more than
    qseries.BYTE_BUDGET bytes.  The counts are read lazily, so the refusal
    comes as soon as the sum passes the budget."""
    words_allowed = qseries.BYTE_BUDGET // word_bytes
    nwords = 0
    for count in counts:
        nwords += count
        if nwords > words_allowed:
            raise ValueError(
                f"refusing to {what} over {nwords:,} or more words: they exceed "
                f"the budget of {qseries.BYTE_BUDGET:,} bytes"
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
    passes, survivors, scored = _sweep_levels(r, max_weight, masks_of)
    return passes[-1].ravel(), survivors, scored


@functools.lru_cache(maxsize=PAIR_SWEEP_CAP)
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
    _check_word_bytes(_words_of_lengths(r, lengths), word_bytes, "list")
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


@_stopwatch
def verify_psi(r: int, max_len: int) -> Report:
    """For every kappa-extensible U on [r] and every word of length <= max_len:
    the transformation permutes each rearrangement class, fixes the last
    letter, and carries maj'_U + inv'_{S minus U} to inv'_S for every
    kappa-extension S of U.

    Images come from psi's own memo; the word list is ordered by weight, so
    each image is one gamma step on top of its stored prefix's image.
    """
    _check_size(r, PAIR_SWEEP_CAP)
    lengths = range(max_len + 1)
    _check_word_bytes(
        _words_of_lengths(r, lengths), 2 * 8 << (r * r), "build 2 bitmask tables"
    )
    letters_list, class_of = _class_words(
        c for n in lengths for c in compositions_of_weight(r, n)
    )
    index = {ls: i for i, ls in enumerate(letters_list)}
    class_arr = np.array(class_of, dtype=np.int64)
    last = np.array([ls[-1] if ls else 0 for ls in letters_list], dtype=np.int64)
    invtab, majtab = _stat_tables(r, letters_list)

    full = (1 << (r * r)) - 1
    masks = np.arange(full + 1)
    bounds = _kappa_bounds_table(r)
    extensible = np.flatnonzero(bounds[:, 0] & bounds[:, 1] == 0).tolist()

    report = Report()
    pair_count = 0
    for u in extensible:
        u_rel = Relation.from_mask(r, u)
        image_idx = np.array(
            [index[_psi_letters(u_rel, ls)] for ls in letters_list], dtype=np.int64
        )
        report.checked += 1
        if not (
            np.array_equal(class_arr[image_idx], class_arr)
            and np.unique(image_idx).size == len(letters_list)
        ):
            report.violations.append(
                {"u": u_rel.to_json_dict(), "property": "not a class bijection"}
            )
        if not np.array_equal(last[image_idx], last):
            report.violations.append(
                {"u": u_rel.to_json_dict(), "property": "last letter moved"}
            )
        for s in np.flatnonzero(_extends(masks, bounds[u])).tolist():
            pair_count += 1
            report.checked += 1
            lhs = invtab[s][image_idx]
            rhs = majtab[u] + invtab[s & ~u & full]
            if not np.array_equal(lhs, rhs):
                bad = int(np.nonzero(lhs != rhs)[0][0])
                report.violations.append(
                    {
                        "u": u_rel.to_json_dict(),
                        "s": Relation.from_mask(r, s).to_json_dict(),
                        "word": " ".join(map(str, letters_list[bad])),
                        "property": "statistic identity fails",
                    }
                )
    report.witnesses = {
        "kappa_extensible": len(extensible),
        "kappa_extension_pairs": pair_count,
        "words": len(letters_list),
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
