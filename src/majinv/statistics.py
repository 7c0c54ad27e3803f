"""Graphical word statistics built from relations on [r].

For a relation U and a word w = x_1 ... x_n:

  inv'_U(w) = number of pairs i < j with x_i U x_j,
  maj'_U(w) = sum of the positions i (1-based) with x_i U x_{i+1}.

A maj-inv statistic is any sum maj'_U + inv'_V for a pair of relations.
The classical statistics arise from the natural order: maj = maj'_> and
inv = inv'_>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .relations import (
    GMap,
    INF,
    Relation,
    empty_relation,
    gmap_to_relation,
    natural_order,
    order_from_ranks,
    set_alphabet_relations,
    u_ab,
    u_k,
    s_ab,
    s_prime_ab,
    v_k,
)
from .words import Word, check_alphabet


def graphical_inv(u: Relation, w: Word) -> int:
    """inv'_U(w): the number of pairs i < j with x_i U x_j."""
    check_alphabet(u.size, w)
    rows = u.rows
    letters = w.letters
    total = 0
    for i, x in enumerate(letters):
        row = rows[x - 1]
        for y in letters[i + 1 :]:
            total += (row >> (y - 1)) & 1
    return total


def graphical_maj(u: Relation, w: Word) -> int:
    """maj'_U(w): the sum of positions i (1-based) with x_i U x_{i+1}."""
    check_alphabet(u.size, w)
    rows = u.rows
    letters = w.letters
    total = 0
    for i in range(len(letters) - 1):
        if (rows[letters[i] - 1] >> (letters[i + 1] - 1)) & 1:
            total += i + 1
    return total


@dataclass(frozen=True, slots=True)
class MajInvStatistic:
    """The statistic maj'_U + inv'_V for relations U, V on a common alphabet."""

    maj_relation: Relation
    inv_relation: Relation

    def __post_init__(self) -> None:
        if self.maj_relation.size != self.inv_relation.size:
            raise ValueError("relations must share an alphabet")

    @property
    def size(self) -> int:
        return self.maj_relation.size

    def evaluate(self, w: Word) -> int:
        return graphical_maj(self.maj_relation, w) + graphical_inv(self.inv_relation, w)


def inv_stat(r: int) -> MajInvStatistic:
    """The classical inversion number on [r]."""
    return MajInvStatistic(empty_relation(r), natural_order(r))


def maj_stat(r: int) -> MajInvStatistic:
    """The classical major index on [r]."""
    return MajInvStatistic(natural_order(r), empty_relation(r))


def k_maj_stat(r: int, k: int) -> MajInvStatistic:
    """The interpolating statistic maj'_{U_k} + inv'_{V_k}; 1 gives maj, r gives inv."""
    return MajInvStatistic(u_k(r, k), v_k(r, k))


def k_maj(r: int, k: int, w: Word) -> int:
    return k_maj_stat(r, k).evaluate(w)


def set_maj_stat(sets: Sequence[Iterable[int]]) -> MajInvStatistic:
    """The block statistic on a collection of disjoint integer sets."""
    u, v, _ = set_alphabet_relations(sets)
    return MajInvStatistic(u, v)


def set_maj(sets: Sequence[Iterable[int]], w: Word) -> int:
    """Evaluate the block statistic; ``w`` lists positions into ``sets``."""
    return set_maj_stat(sets).evaluate(w)


def stat_fg(m: GMap, w: Word) -> int:
    """Evaluate the (f, g)-statistic by its defining formula.

    Value: sum of i with f(x_i) >= g(f(x_{i+1})) plus the number of pairs
    i < j with g(f(x_j)) > f(x_i) > f(x_j).  Always equal to the evaluation
    of gmap_stat(m); both routes are kept deliberately.
    """
    check_alphabet(m.size, w)
    f, g = m.f, m.g
    letters = w.letters
    total = 0
    for i in range(len(letters) - 1):
        if f[letters[i] - 1] >= g[f[letters[i + 1] - 1] - 1]:
            total += i + 1
    for i in range(len(letters)):
        fi = f[letters[i] - 1]
        for j in range(i + 1, len(letters)):
            fj = f[letters[j] - 1]
            if g[fj - 1] > fi > fj:
                total += 1
    return total


def gmap_stat(m: GMap) -> MajInvStatistic:
    """The relation pair (U, S_f minus U) determined by a g-map.

    U = {(x,y) : f(x) >= g(f(y))} and S_f = {(x,y) : f(x) > f(y)} is the
    total order pulled back through f.
    """
    u = gmap_to_relation(m)
    return MajInvStatistic(u, order_from_ranks(m.f) - u)


def letter_counts(u: Relation, s: Relation, w: Word, x: int) -> tuple[int, int, int]:
    """Counts (l, r, t) of the letters of w against the letter x.

    l counts letters y with not(y U x), r counts letters with y U x, and t
    counts letters with not(y U x) but y S x.  Always l + r = len(w).
    """
    if u.size != s.size:
        raise ValueError("alphabet size mismatch")
    check_alphabet(u.size, w, x)
    l_count = r_count = t_count = 0
    for y in w.letters:
        if u.contains(y, x):
            r_count += 1
        else:
            l_count += 1
            if s.contains(y, x):
                t_count += 1
    return l_count, r_count, t_count


# ---------------------------------------------------------------------------
# Named statistic families


def ratio_gmap(r: int, k) -> GMap:
    """g(x) = floor(k*x + 1) while k*x < r, INF afterwards; requires k >= 1.

    Exact rationals (fractions.Fraction) keep floor computations exact.
    The induced statistic counts descents with ratio above k and inversions
    with ratio at most k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g: list[int | float] = []
    for x in range(1, r + 1):
        g.append(int(k * x) + 1 if k * x < r else INF)
    return GMap(tuple(range(1, r + 1)), tuple(g))


def marked_successor_gmap(r: int, marked: Iterable[int]) -> GMap:
    """g(x) = x + 1 for marked letters below r, INF otherwise.

    The induced statistic scores descents into marked letters by position
    and counts plain inversions over unmarked smaller letters.
    """
    mset = set(int(x) for x in marked)
    for x in mset:
        if not 1 <= x <= r:
            raise ValueError(f"letter {x} outside alphabet [{r}]")
    g: list[int | float] = []
    for x in range(1, r + 1):
        g.append(x + 1 if x in mset and x != r else INF)
    return GMap(tuple(range(1, r + 1)), tuple(g))


def subset_stat(r: int, a: Iterable[int], b: Iterable[int]) -> MajInvStatistic:
    """maj over descents from A into B plus inv against the block order of A."""
    u = u_ab(r, a, b)
    return MajInvStatistic(u, s_ab(r, a, b) - u)


def subset_stat_total(r: int, a: Iterable[int], b: Iterable[int]) -> MajInvStatistic:
    """Like subset_stat but completed to the total order; always mahonian."""
    u = u_ab(r, a, b)
    return MajInvStatistic(u, s_prime_ab(r, a, b) - u)
