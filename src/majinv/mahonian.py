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
are then scored only on the classes of weight n that use all r letters: a
pair survives when each class carries the same multiset of values as its
target statistic.  Below weight r there is no such class, and heredity alone
decides.  The seeding is exact, since the classes of weight n are those that
use every letter and those that omit one, and the latter are exactly the
classes of the restrictions.  Weights 0 and 1 hold for every pair, since a
word of length <= 1 has no descent and no inversion.

Every maj'/inv' value is read from cell rows.  With pc[w] and ac[w] the pair
and adjacency cell rows of a word w (see _cell_rows), inv'_V(w) =
pc[w] . bits(V) and maj'_U(w) = ac[w] . bits(U), so a chunk of candidates is
scored by one matrix product of their bits with the words' rows.  The rows
implement the same definitions as the statistics module and the test suite
cross-checks the two routes; it also keeps the unseeded sweep, which scores
every pair on every class, as the oracle of this one.

The sweeps, the closure suite and verify_psi test kappa-extension on masks,
against one cached array of relations.kappa_bounds per alphabet size, formed
bitwise over all masks at once.

This is the one module that uses numpy, and its array kernels (_all_words,
_places, _bits, _cell_rows, _psi_images) own the word order and the image
layout: words are listed by length and then base-r code, as words_of_length
lists them, a word's class is keyed by the place of the class's least word,
its letters sorted, and a relation's cells are read from its mask.

verify_psi checks the transformation theorem once per U, not once per (U, S).
The kappa-extensions of U form a cube: S = need | F for every F within the
free cells, those in neither need nor forbid, and U lies in need, so in
every S.  By the cell rows above,

  inv'_S(psi w) - maj'_U(w) - inv'_{S minus U}(w) = D[w] . bits(S) + e[w],

with D = pc[psi w] - pc[w] and e = (pc[w] - ac[w]) . bits(U).  That is linear
in the bits of S, so it is 0 on the whole cube iff it is 0 at S = need and
D[w] is 0 in every free cell.  Only a U that fails this has its cube walked,
to list each failing S.  The test suite keeps the per-(U, S) loop, which
checks every S on its own, as the oracle of this check.
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
    Bipartition,
    GMap,
    INF,
    JSON_SIZE_CAP,
    Relation,
    empty_relation,
    is_bipartitional,
    is_kappa_extensible,
    is_total_order,
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
from .words import (
    Composition,
    class_size,
    compositions_up_to,
    words_of_length,
)

STAGE_CELL_BUDGET = 1 << 16  # word cells per sweep or psi chunk; bounds the temporaries
# letters of the words a pair sweep tables, over all its sizes and weights.  A
# sweep's time grows with them: theorem-majinv took 0.2-0.3 s at r = 1,
# W = 1253 (785,630 letters) and 0.7-1.0 s at r = 3, W = 9 (234,660; there
# each word is scored for each candidate), on 2 vCPUs, the least of three
# runs in one process, over several processes.  r = 3, W = 10 (804,690) is
# refused.
SWEEP_LETTER_BUDGET = 3 << 18
# verify_psi's kappa-extensible relations x words x max_len.  At the edge, on
# 2 vCPUs, the least of three runs in one process, over three processes: r = 1,
# max_len 2895 took 0.8-0.9 s (numpy calls per length dominate, one word
# each); r = 2, max_len 15 0.5 s; r = 3, max_len 8 0.4-0.5 s; r = 4,
# max_len 5 0.8-0.9 s.
PSI_WORK_BUDGET = 1 << 24
# verify_product_formula's steps (_suite_steps, per relation).  At the edges,
# on 2 vCPUs, one cold run per process over three processes: (r, max_weight)
# = (4, 5) took 1.8-2.2 s, (3, 8) 1.4-1.5 s and (2, 16) 2.1-2.4 s; (4, 6), 6.2 s,
# (3, 9), 4.6 s, and (2, 17), 3.7-4.3 s, are refused.  At r = 1 the certificate
# budget refuses first, from weight 370 on: (1, 369) took 1.3-1.8 s, a 226 MB peak.
PRODUCT_FORMULA_BUDGET = 3 << 20
# verify_applications' steps (_suite_steps, per certificate; 532 over [4]).  On
# 2 vCPUs, one run each: max_weight 7 took 0.9 s; 8 (3.6 s) and 9 (15 s) are
# refused.
APPLICATIONS_BUDGET = 1 << 24
# statistics `majinv enumerate` lists, r! for an order on [r].  On 2 vCPUs, one
# process each: r = 7 (5,040) took 0.8-1.3 s; r = 8 (40,320), refused, 6.8-7.3 s.
STAT_ENUM_BUDGET = 1 << 13


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


def _check_size(r: int, count, budget: int, unit: str) -> None:
    """Refuse r < 1, then an r whose work, ``count(r)`` ``unit``, passes ``budget``."""
    if r < 1:
        raise ValueError(f"refusing alphabet size {r}: size must be >= 1")
    qseries.check_budget((count(r),), budget, unit, f"alphabet size {r}")


def _relations(r: int) -> int:
    """The 2**(r*r) relations on [r]; past r = 8, counted at 8, past any budget."""
    return 1 << min(r, 8) ** 2


def _statistic_pairs(r: int) -> int:
    """Pairs of the (r!)**2 classified statistics, r counted at 8 past 8 too."""
    return math.comb(math.factorial(min(r, 8)) ** 2, 2)


def enumerate_relations(r: int):
    """All 2**(r*r) relations on [r] in increasing bitmask order."""
    _check_size(r, _relations, qseries.WORD_BUDGET, "relations")
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
    weight <= max_weight: the two statistics' distributions_up_to, read
    from the memoized walk of qseries, compared class by class."""
    if u.size != s.size:
        raise ValueError("alphabet size mismatch")
    stat = MajInvStatistic(u, s - u)
    ref = MajInvStatistic(empty_relation(s.size), s)
    return qseries.distributions_up_to(stat, max_weight) == qseries.distributions_up_to(
        ref, max_weight
    )


# ---------------------------------------------------------------------------
# Cell rows and budgets shared by the sweeps and verify_psi


def _cell_rows(r: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair and adjacency cell rows of an (N, n) array of words over [r]:
    in pair cell (x-1)*r + (y-1), the number of places i < j with letters
    (x, y); in adjacency cell (x-1)*r + (y-1), the sum of the places i with
    letters (x, y) at i and i + 1.  So inv'_V(w) = pc[w] . bits(V) and
    maj'_U(w) = ac[w] . bits(U)."""
    nwords, n = words.shape
    one = (words[:, :, None] == np.arange(1, r + 1)).astype(np.int64)
    seen = np.cumsum(one, axis=1) - one  # seen[w, j, x]: the x's before place j
    pc = seen.transpose(0, 2, 1) @ one
    ac = (one[:, :-1] * np.arange(1, n)[:, None]).transpose(0, 2, 1) @ one[:, 1:]
    return pc.reshape(nwords, r * r), ac.reshape(nwords, r * r)


def _bits(masks, r: int) -> np.ndarray:
    """Row i holds the r*r bits of masks[i], as 0/1 in one column per cell."""
    return (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(r * r)) & 1


def _words_of_lengths(r: int, lengths: range):
    """The number of words over [r] of each length in ``lengths``."""
    return (r ** min(n, 64) for n in lengths)  # for r >= 2, r**64 exceeds any budget


def _full_support_words(r: int, n: int) -> int:
    """The number of words of length n over [r] that use every letter, by
    inclusion-exclusion.  Past length 64 it is counted at 64, which for
    r >= 2 already exceeds any budget."""
    n = min(n, 64)
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** n for j in range(r + 1))


def _all_words(r: int, n: int) -> np.ndarray:
    """The r**n words of length n over [r] as an (r**n, n) array, in the
    order of words_of_length: row c holds the base-r digits of c, most
    significant first, each plus one."""
    return np.arange(r**n)[:, None] // r ** np.arange(n - 1, -1, -1) % r + 1


def _places(words: np.ndarray, r: int, start: int) -> np.ndarray:
    """start plus the base-r code of each word along the last axis, its
    letters less one as the digits, most significant first.  Formed in
    float64, exact below 2**53, so that BLAS does the sums."""
    n = words.shape[-1]
    codes = (words - 1.0) @ r ** np.arange(n - 1.0, -1.0, -1.0)
    return codes.astype(np.int64) + start


def _psi_images(r: int, masks, max_len: int):
    """psi of every word of length <= max_len over [r], under the relations
    with the given masks, for a chunk of consecutive masks at a time.

    Yields ``(chunk, images)``: ``chunk`` is the slice of ``masks`` served and
    ``images[n]`` an int8 array of shape (len(chunk), r**n, n) whose row c,
    for relation j, holds the letters of psi of row c of _all_words(r, n).

    All words of one length go at once through psi(w x) = gamma_x(psi(w)) x,
    with psi(w) the row c // r of the length before.  A letter y is a pivot
    of gamma_x when its bit in column x of U, cell (y, x) of _bits, equals
    that of the row's last letter (see transform).  The factorization of
    psi(w) is a run of groups, each a block followed by the pivot that closes
    it, and gamma_x rotates every group right by one, so that its pivot comes
    first; this is the stable sort of the row on (pivots strictly before, 0
    for a pivot or 1 for a block letter), done as one gather.  A row ends
    with a pivot, so the rows are laid end to end and no group crosses two of
    them.  Chunks stay under STAGE_CELL_BUDGET letters.
    """
    per_relation = sum(n * r**n for n in range(max_len + 1))
    step = max(1, STAGE_CELL_BUDGET // max(1, per_relation))
    appended = np.arange(r, dtype=np.int8)  # the appended letter less one, c % r
    for lo in range(0, len(masks), step):
        chunk = masks[lo : lo + step]
        m = len(chunk)
        # related[j, x - 1] has bit y - 1 set iff y U x: column x of relation j
        cells = _bits(chunk, r).reshape(m, r, r) << np.arange(r)[:, None]
        related = cells.sum(axis=1, dtype=np.min_scalar_type(-(1 << r)))
        images = [np.zeros((m, 1, 0), dtype=np.int8)]
        for n in range(1, max_len + 1):
            k = n - 1
            prev = np.repeat(images[-1], r, axis=1)  # psi(w) in row c of w x
            x = np.tile(appended, r**k)
            cls_x = (related[:, x, None] >> (prev - 1)) & 1
            pivot = (cls_x == cls_x[..., -1:]).ravel()
            at = np.arange(pivot.size)
            # where each slot of the rotated row reads from: the pivot that
            # closes its group when the slot opens one, else the slot before.
            # A slot opens a group when the slot before is a pivot; a row's
            # first slot follows the last of another row, always a pivot.
            closing = np.minimum.accumulate(np.where(pivot, at, pivot.size)[::-1])[::-1]
            source = np.where(np.roll(pivot, 1), closing, at - 1)
            img = np.empty((m, r**n, n), dtype=np.int8)
            img[..., :-1] = prev.ravel()[source].reshape(m, r**n, k)
            img[..., -1] = x + 1
            images.append(img)
        yield chunk, images


def _weight_tables(r: int, n: int):
    """Class keys and pair and adjacency cell rows of the words of weight n
    over [r] that use every letter.

    ``keybase`` holds class_key * stride, with the key of a class the place
    of its least word (see _places) and a stride above every maj + inv value
    of a weight-n word.
    """
    words = _all_words(r, n)
    words = words[(words[:, :, None] == np.arange(1, r + 1)).any(axis=1).all(axis=1)]
    stride = 1 << (n * (n - 1)).bit_length()
    keybase = _places(np.sort(words, axis=1), r, 0) * stride
    return (keybase, *_cell_rows(r, words))


@functools.lru_cache(maxsize=3)  # the sizes the pass-array check admits
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
    that uses all r letters.  The values are cell rows times relation bits.
    The candidates are scored a group of targets at a time, each distinct
    target sorted once, so that no temporary passes STAGE_CELL_BUDGET cells
    by more than one row of words."""
    keybase, pc, ac = _weight_tables(r, n)
    # float64 sums are exact for these small integers and run on BLAS; row
    # a * r*r + b of cells holds the adjacency (a = 0) or pair (a = 1) cell b
    cells = np.concatenate([ac, pc], axis=1).T.astype(np.float64)
    keys = keybase.astype(np.float64)
    bits = r * r
    maj, inv, target = np.broadcast_arrays(
        *masks_of(r, alive >> bits, alive & ((1 << bits) - 1))
    )
    order = np.argsort(target, kind="stable")
    targets, start, target_of = np.unique(
        target[order], return_index=True, return_inverse=True
    )
    start = np.append(start, alive.size)
    step = max(1, STAGE_CELL_BUDGET // keybase.size)
    kept = [np.empty(0, dtype=np.int64)]
    for first in range(0, targets.size, step):
        last = min(first + step, targets.size)
        want = _bits(targets[first:last], r) @ cells[bits:]
        want += keys
        want.sort(axis=1)
        for lo in range(start[first], start[last], step):
            hi = min(lo + step, start[last])
            part = order[lo:hi]
            got = np.hstack([_bits(maj[part], r), _bits(inv[part], r)]) @ cells
            got += keys
            got.sort(axis=1)
            match = got == want[target_of[lo:hi] - first]
            kept.append(alive[part][match.all(axis=1)])
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
    _check_size(r, lambda k: _relations(k) ** 2, qseries.BYTE_BUDGET, "array bytes")
    _check_max_weight(max_weight)
    tabled = (
        n * _full_support_words(k, n)
        for k in range(1, r + 1)
        for n in range(max(2, k), max_weight + 1)
    )
    qseries.check_budget(tabled, SWEEP_LETTER_BUDGET, "tabled letters", "to sweep")
    passes, survivors, scored = _sweep_levels(r, max_weight, masks_of)
    return passes[-1].ravel(), survivors, scored


@functools.lru_cache(maxsize=4)  # the sizes the relation check admits
def _kappa_bounds_table(r: int) -> np.ndarray:
    """Row u holds kappa_bounds of the relation with mask u, as the columns
    (need, forbid), formed bitwise over every mask at once: (x, z) is forced
    when row x of U has a bit that row z lacks, need is U with the forced
    pairs and forbid the forced pairs reversed.  Cached and read-only, since
    every caller shares the one array."""
    masks = np.arange(1 << (r * r), dtype=np.int64)
    rows = [(masks >> (x * r)) & ((1 << r) - 1) for x in range(r)]
    need, forbid = masks.copy(), np.zeros_like(masks)
    for x, z in itertools.permutations(range(r), 2):
        forced = (rows[x] & ~rows[z] != 0).astype(np.int64)
        need |= forced << (x * r + z)
        forbid |= forced << (z * r + x)
    table = np.stack([need, forbid], axis=1)
    table.flags.writeable = False
    return table


def _extends(s, bounds) -> np.ndarray:
    """Whether S kappa-extends U, for masks ``s`` and (need, forbid) rows
    ``bounds`` of _kappa_bounds_table, broadcast against each other."""
    need, forbid = bounds[..., 0], bounds[..., 1]
    return (s & need == need) & (s & forbid == 0)


def _cube(need: int, free: int) -> list[int]:
    """The masks need | F for every F within ``free``, ascending; need and
    free are disjoint, so that is the order of F."""
    cube = [need]
    sub = (0 - free) & free  # the subsets of free, counting up
    while sub:
        cube.append(need | sub)
        sub = (sub - free) & free
    return cube


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


def _check_max_len(max_len: int) -> None:
    if max_len < 0:
        raise ValueError(
            f"max length must be >= 0, got {max_len}: no word has a negative length"
        )


@_stopwatch
def verify_theorem_majinv(r: int, max_weight: int) -> Report:
    """Sweep every ordered relation pair (U, S) on [r] and confirm that
    equidistribution up to max_weight holds exactly for kappa-extensions."""
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
    length <= max_len; unseparated pairs are reported as violations.  One pass
    reads the words in words_of_length order, evaluating the statistics of open
    pairs once a word, until every pair has its first separator.  It is refused
    before any word is read when the words it may read pass qseries.WORD_BUDGET."""
    _check_size(r, _statistic_pairs, qseries.WORD_BUDGET, "statistic pairs")
    _check_max_len(max_len)
    lengths = range(1, max_len + 1)
    qseries.check_budget(
        _words_of_lengths(r, lengths), qseries.WORD_BUDGET, "words", "to read the words"
    )
    stats = [st for order in total_orders(r) for st in enumerate_mahonian_stats(order)]
    separators = dict.fromkeys(itertools.combinations(range(len(stats)), 2))
    unseparated = list(separators)
    words = (w for n in lengths for w in words_of_length(r, n))
    while unseparated and (word := next(words, None)) is not None:
        live = set(itertools.chain(*unseparated))
        values = {k: stats[k].evaluate(word) for k in live}
        for i, j in unseparated:
            if values[i] != values[j]:
                separators[i, j] = word.text()
        unseparated = [pair for pair in unseparated if separators[pair] is None]
    jsons = [_stat_json(st) for st in stats]
    violations = [{"stat_a": jsons[i], "stat_b": jsons[j]} for i, j in unseparated]
    firsts = {f"{i},{j}": w for (i, j), w in separators.items() if w is not None}
    witnesses = {"statistics": jsons, "first_separators": firsts}
    return Report(checked=len(separators), violations=violations, witnesses=witnesses)


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

    The extensions are read from _kappa_bounds_table: U's cube, need | F for
    F within its free cells, is non-empty iff need and forbid are disjoint,
    and the closure lies in every extension iff it lies in need, the cube's
    least element.  The predicates of the relations module are computed per
    relation, so each check compares them with the table.

    The chain {(1,2),(2,3)} and the divisibility relation on [9] are also
    checked to be rejected.
    """
    rels = list(enumerate_relations(r))  # refused first, by the relation check
    bounds = _kappa_bounds_table(r)
    need, forbid = bounds[:, 0], bounds[:, 1]
    bip = np.array([is_bipartitional(u) for u in rels])
    mismatch = bip != _extends(np.arange(len(rels)), bounds)
    by_quadruple = np.array([is_kappa_extensible(u) for u in rels])
    non_empty = need & forbid == 0
    # the closure is computed for the U the quadruple test calls extensible;
    # for the others it can only extend U when the cube is non-empty, which
    # already disagrees with the quadruple test
    extensible = np.flatnonzero(by_quadruple)
    closures = [kappa_closure(rels[u]) for u in extensible.tolist()]
    closure = np.zeros(len(rels), dtype=np.int64)
    closure[extensible] = [c.mask for c in closures]
    not_bip = np.zeros(len(rels), dtype=bool)
    not_bip[extensible] = [not is_bipartitional(c) for c in closures]
    by_closure = by_quadruple & _extends(closure, bounds)
    disagree = (by_quadruple != by_closure) | (by_closure != non_empty)
    not_minimal = by_quadruple & non_empty & (closure & ~need != 0)

    report = Report(checked=len(rels))
    full = (1 << (r * r)) - 1
    for u in np.flatnonzero(mismatch | disagree | not_bip | not_minimal).tolist():
        u_json = rels[u].to_json_dict()
        for flagged, prop in (
            (mismatch, "self-extension mismatch"),
            (disagree, "extensibility criteria disagree"),
            (not_bip, "closure not bipartitional"),
        ):
            if flagged[u]:
                report.violations.append({"u": u_json, "property": prop})
        if not not_minimal[u]:
            continue
        free = full & ~int(need[u] | forbid[u])
        for s in _cube(int(need[u]), free):
            if int(closure[u]) & ~s:
                report.violations.append(
                    {
                        "u": u_json,
                        "s": rels[s].to_json_dict(),
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
        "kappa_extensible": len(extensible),
        "bipartitional": int(bip.sum()),
    }
    return report


@functools.lru_cache(maxsize=4096)
def _restricted_letters(letters, support: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of ``letters`` (1-based) in ``support`` (0-based),
    relabelled 1..k in order."""
    return tuple(j + 1 for j, x in enumerate(support) if x + 1 in letters)


# the classes bench workload: 518 keys, 378 hits in 896 calls
@functools.lru_cache(maxsize=4096)
def _restricted_bipartition(b: Bipartition, support: tuple[int, ...]) -> Bipartition:
    """``b`` restricted to ``support`` and relabelled in order: the blocks cut
    to the support, the emptied ones dropped, and each kept block's beta."""
    blocks, betas = zip(
        *(
            (cut, beta)
            for block, beta in zip(b.blocks, b.betas)
            if (cut := _restricted_letters(block, support))
        )
    )
    return Bipartition(blocks, betas)


# the classes bench workload: 86 keys, 58 hits in 144 calls
@functools.lru_cache(maxsize=1024)
def _product_formulas(b: Bipartition, max_weight: int) -> tuple:
    """bipartitional_product_formula on every class of
    qseries.full_support_counts(b.size, max_weight).  A block the class
    leaves empty contributes the factor 1, so on a class with support s the
    formula of a bipartition equals that of its restriction to s."""
    return tuple(
        qseries.bipartitional_product_formula(Composition(counts), b)
        for counts in qseries.full_support_counts(b.size, max_weight)
    )


def _suite_steps(r: int, max_weight: int, certificates: int):
    """The steps of a suite of certificates over [r] per weight n <=
    max_weight: those of qseries.certificate_steps once per certificate."""
    return (certificates * steps for steps in qseries.certificate_steps(r, max_weight))


@_stopwatch
def verify_product_formula(r: int, max_weight: int) -> Report:
    """Match the closed product form of the closure distribution against the
    class distribution of qseries.distribution for every kappa-extensible
    relation on [r].

    Compared a support at a time by qseries.certificate_failures: the
    walked tuple of the restricted statistic against _product_formulas of
    the restricted bipartition, the verdict memoized on that pair of keys.
    A relation's failing classes are read from the same tuples and listed in
    the order of compositions_up_to."""
    _check_size(r, _relations, qseries.WORD_BUDGET, "relations")
    _check_max_weight(max_weight)
    bounds = _kappa_bounds_table(r)
    extensible = np.flatnonzero(bounds[:, 0] & bounds[:, 1] == 0)
    qseries.check_budget(
        _suite_steps(r, max_weight, len(extensible)),
        PRODUCT_FORMULA_BUDGET,
        "steps",
        "to check the product formula",
    )
    qseries.supports(r, max_weight)  # each certificate's own budget, checked once
    report = Report()
    verdicts: dict = {}
    for mask, need in zip(extensible.tolist(), bounds[extensible, 0].tolist()):
        u = Relation.from_mask(r, mask)
        closure = Relation.from_mask(r, need)  # need is U's kappa-closure
        bip = extract_bipartition(closure)
        stat = MajInvStatistic(u, closure - u)
        report.checked += math.comb(max_weight + r, r)
        for c, lhs, rhs in qseries.certificate_failures(
            stat,
            max_weight,
            verdicts,
            lambda s: (
                qseries.restricted_key(stat, s),
                _restricted_bipartition(bip, s),
            ),
            lambda key: _product_formulas(key[1], max_weight),
        ):
            report.violations.append(
                {
                    "u": u.to_json_dict(),
                    "composition": c.text(),
                    "distribution": lhs.to_json_dict(),
                    "product_formula": rhs.to_json_dict(),
                }
            )
    report.witnesses = {"kappa_extensible": len(extensible), "max_weight": max_weight}
    return report


@_stopwatch
def verify_macmahon(r: int, max_weight: int) -> Report:
    """Check dist(inv) = dist(maj) = q-multinomial on every class up to
    max_weight over [r].  Both are certified a support at a time by
    qseries.is_mahonian_up_to; only when one fails are the classes listed
    one by one."""
    _check_size(r, lambda k: k, JSON_SIZE_CAP, "letters")  # the statistic-alphabet rule
    _check_max_weight(max_weight)
    inv = inv_stat(r)
    maj = maj_stat(r)
    checked = math.comb(max_weight + r, r)  # the classes, listed only on a failure
    report = Report(checked=checked, witnesses={"max_weight": max_weight})
    if qseries.is_mahonian_up_to(inv, max_weight) and qseries.is_mahonian_up_to(
        maj, max_weight
    ):
        return report
    for c, d_inv, d_maj in zip(
        compositions_up_to(r, max_weight),
        qseries.distributions_up_to(inv, max_weight),
        qseries.distributions_up_to(maj, max_weight),
    ):
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
    return report


def _psi_words(r: int, max_len: int):
    """The class keys (the place of the class's least word), last letters (0
    for the empty word) and pair and adjacency cell rows of the words up to
    max_len, listed by length and code as _all_words lists them."""
    keys, last, cells, start = [], [], [], 0
    for n in range(max_len + 1):
        words = _all_words(r, n)
        keys.append(_places(np.sort(words, axis=1), r, start))
        last.append(words[:, -1].copy() if n else [0])  # a view would keep words
        cells.append(_cell_rows(r, words))
        start += r**n
    # a cell count, and a difference of two, lies within max_len**2 of 0
    cell_type = np.min_scalar_type(-max_len * max_len - 1)
    pc, ac = (np.concatenate(rows).astype(cell_type) for rows in zip(*cells))
    return np.concatenate(keys), np.concatenate(last), pc, ac


def _image_places(images, r: int) -> np.ndarray:
    """Row j: the place, in the listing by length and code, of the image of
    each word there under the j-th relation of a _psi_images chunk."""
    starts = np.cumsum([0] + [img.shape[1] for img in images])
    return np.concatenate(
        [_places(img, r, start) for img, start in zip(images, starts)], axis=1
    )


def _word_text(r: int, place: int) -> str:
    """The text of the word at ``place`` of the listing by length and code."""
    n = 0
    while place >= r**n:
        place -= r**n
        n += 1
    return " ".join(str(place // r**k % r + 1) for k in range(n - 1, -1, -1))


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
    """(S, place of the shortlex-least failing word) for each S of U's cube
    on which the identity fails, S ascending; ``image[i]`` is the word psi
    sends word i to."""
    cube = _cube(need, free)
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

    The images come from ``_psi_images``, a chunk of U at a time.
    The identity is checked once per U over its whole cube of extensions;
    only a U that fails has its cube walked, to list each failing S with its
    shortlex-least failing word: shortest first, then in lex order.
    """
    _check_size(r, _relations, qseries.WORD_BUDGET, "relations")
    _check_max_len(max_len)
    bounds = _kappa_bounds_table(r)
    extensible = np.flatnonzero(bounds[:, 0] & bounds[:, 1] == 0)
    steps = len(extensible) * max_len
    qseries.check_budget(
        (count * steps for count in _words_of_lengths(r, range(max_len + 1))),
        PSI_WORK_BUDGET,
        "image letters",
        "to check psi",
    )
    key, last, pc, ac = _psi_words(r, max_len)
    nwords = key.size
    full = (1 << (r * r)) - 1

    report = Report()
    pair_count = 0
    for chunk, images in _psi_images(r, extensible, max_len):
        image_idx = _image_places(images, r)
        bijection = (key[image_idx] == key).all(axis=1) & (
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
                        "word": _word_text(r, bad),
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


# the classes bench workload: 30 keys, 310 hits in 340 calls
@functools.lru_cache(maxsize=256)
def _subset_formulas(k: int, a: tuple[int, ...], max_weight: int) -> tuple:
    """The closed distribution of subset_stat(k, a, b), whatever b, on every
    class of qseries.full_support_counts(k, max_weight):

        |class of the non-A counts| * [n; c(a_1), ..., c(a_j), m]_q

    with a_1 > ... > a_j the letters of A and m the sum of the non-A counts.
    Letters with count 0 change neither factor, so on a class with support s
    the formula of A equals that of A restricted to s."""
    complement = [x for x in range(1, k + 1) if x not in a]
    out = []
    for counts in qseries.full_support_counts(k, max_weight):
        parts = tuple(counts[x - 1] for x in reversed(a))
        rest = tuple(counts[x - 1] for x in complement)
        coeff = class_size(Composition(rest)) if rest else 1
        out.append(coeff * qseries.q_multinomial(Composition(parts + (sum(rest),))))
    return tuple(out)


@_stopwatch
def verify_applications(max_weight: int) -> Report:
    """Check the named statistic families at r = 4 (and the parity statistic
    at r = 3 and 4): mahonian certificates up to max_weight, the closed
    distribution of the subset statistic, and the permutation-class formula
    for the even/odd instance.  Refused before any certificate runs when the
    steps of all 532 pass APPLICATIONS_BUDGET."""
    _check_max_weight(max_weight)
    r = 4
    report = Report()
    letters = list(range(1, r + 1))
    subsets = [
        frozenset(c)
        for size in range(r + 1)
        for c in itertools.combinations(letters, size)
    ]

    qseries.supports(r, max_weight)  # each certificate's own budget comes first
    # 4 ratio certificates, a marked-successor one per subset, and a
    # subset-total and a subset-distribution one per pair of subsets
    steps = _suite_steps(r, max_weight, 4 + len(subsets) + 2 * len(subsets) ** 2)
    qseries.check_budget(
        steps, APPLICATIONS_BUDGET, "steps", "to check the applications"
    )

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
    maj_gmap, inv_gmap = ratio_gmap(r, 1), ratio_gmap(r, r)
    check(
        "ratio k=1 is maj",
        all(stat_fg(maj_gmap, w) == maj_ref.evaluate(w) for w in sweep),
    )
    check(
        "ratio k=r is inv",
        all(stat_fg(inv_gmap, w) == inv_ref.evaluate(w) for w in sweep),
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

    verdicts: dict = {}
    for a in subsets:
        for b in subsets:
            report.checked += math.comb(max_weight + r, r)
            for c, _, _ in qseries.certificate_failures(
                subset_stat(r, a, b),
                max_weight,
                verdicts,
                lambda s: (
                    len(s),
                    _restricted_letters(a, s),
                    _restricted_letters(b, s),
                ),
                lambda key: _subset_formulas(*key[:2], max_weight),
            ):
                report.violations.append(
                    {
                        "family": "subset-distribution",
                        "a": sorted(a),
                        "b": sorted(b),
                        "composition": c.text(),
                    }
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
