"""Exact integer polynomials in q and distribution polynomials of statistics.

The generating function of a statistic over a rearrangement class is the
polynomial sum of q**stat(w).  Mahonian statistics are those whose
distribution on every class equals the q-multinomial coefficient

    [n; c(1), ..., c(r)]_q = [n]_q! / ([c(1)]_q! ... [c(r)]_q!),

with the q-factorial [n]_q! = (1+q)(1+q+q^2) ... (1+q+...+q^(n-1)).

Distribution polynomials come from one engine, a depth-first walk over the
prefix tree of the class.  Appending the letter y to a prefix of length p
that ends in x raises maj'_U + inv'_V by

    p*[x U y] + sum over z of used_z*[z V y],

with used_z the number of z's in the prefix, so each node's value is its
parent's plus one such step: no word is built and none is re-scored.
Enumerating the class and evaluating every word
(``words.enumerate_class`` with ``MajInvStatistic.evaluate``) computes the
same polynomial from the definitions; the tests keep it as the brute-force
oracle of the walk.

A letter absent from the class never occurs in a prefix, so the polynomial
depends only on the rows of U and V restricted to the support
{z : c(z) > 0} and on the non-zero counts.  Nor does it change when the
letters are renamed, U, V and the counts together.  So the restriction
relabels the support's letters 0..k-1 in the order of a signature that no
renaming changes (loops and degrees; see ``_relabel``): the restricted key
is that form, the restricted rows so relabelled, and the order, which
support letter became which form letter.  ``_restrict`` masks the rows to
the support and restricts them, and ``_relabel``, memoized on the
restricted rows, sorts and relabels them, so statistics that agree on the
support share one sort.  Both steps read one table, ``_restriction``, since
relabelling rows by an order is restricting them to the letters listed in
that order.  The walk is memoized on the form and the counts read in its
labels, so statistics that differ only by a relabelling mostly share their
walks; the form need not be canonical, since letters that tie on the
signature only cost hits.  The traffic is the class certificates (macmahon,
product-formula, applications), which score many statistics on thousands of
small classes: statistics that agree on a support up to relabelling, and
classes that differ only by letters they leave out, share one walk.

Certificates ask for every class up to a weight W, and they are answered a
support at a time, with no list of the classes.  ``supports(r, W)`` checks
the budgets and gives the letter sets of 1..min(r, W) letters; a class is
named by its support and its counts there, placed on [r], and classes run
by (weight, counts), the order of ``compositions_up_to``.  The statistic is
restricted once per support, and the polynomials of all the classes on that
support are one memoized tuple per (form, W), in the order of
``full_support_counts(k, W)``, k the support's size.  A key reads its own
tuple through a gather memoized on (order, W): its class with counts c is
the form's class with counts (c[order[0]], ..., c[order[k-1]]).  A
certificate compares that tuple whole with an expected tuple over the same
classes, memoized on what the expected side depends on after restriction:
k for the q-multinomials, the bipartition restricted to the support and
relabelled in support order for the product formula, the restricted A for
the subset formula.  The verdict is memoized where the same keys recur: on
(form, W) in ``is_mahonian_up_to``, since the q-multinomials do not change
when the counts are permuted, and in ``certificate_failures`` on a key the
caller gives: (restricted key, restricted bipartition) for the product
formula, (k, restricted A, restricted B), which fix the restricted subset
statistic, for the subset formula.  ``is_mahonian_up_to`` stops at the
first support that fails, and its whole verdict is memoized on (U, V, W),
read only after the budget check of ``supports``, so a request past the
budget is refused even when its verdict is known.
``certificate_failures`` places the failing classes of every failing
support and sorts them, so a certificate's violations and the order of
them are those of a class-by-class comparison.  The empty class scores 1
on both sides of every formula.  ``distributions_up_to`` lists the classes
and reads each from ``distribution``, the entry point for a single class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress
from typing import Iterable

from .statistics import MajInvStatistic
from .words import Composition, class_size, compositions_up_to
from .relations import Bipartition, Relation, json_int

BYTE_BUDGET = 1 << 30  # largest table or coefficient list built at once, well under the RAM
# steps one distribution request may take, one per word walked and, for a
# certificate, one per 16 coefficient slots: at about 0.9 million words a
# second (Python 3.11, 2 vCPUs) a certificate over [2] up to weight 19,
# 1,048,575 words, took 1.1 s, and the class (5, 5, 5), 756,756 words, 0.8 s
WORD_BUDGET = 1 << 20
# the walk recurses once per letter placed before one letter kind is left,
# n - (least non-zero count) levels, under Python's default limit of 1,000
WALK_DEPTH_CAP = 800


@dataclass(frozen=True, slots=True)
class QPolynomial:
    """Integer polynomial in q; coefficients ascending, canonical form."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("use (0,) for the zero polynomial")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; not canonical")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "QPolynomial":
        """Build from an ascending coefficient list, trimming trailing zeros."""
        cs = tuple(coeffs)
        top = max(compress(range(len(cs)), cs), default=0)  # the last non-zero
        return cls(cs[: top + 1] or (0,))

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls((0,))

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "QPolynomial":
        """coeff * q**degree."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if coeff == 0:
            return cls.zero()
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree 0."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial.from_coeffs(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return QPolynomial.from_coeffs(out)

    def __mul__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            return QPolynomial.from_coeffs(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial.from_coeffs(out)

    __rmul__ = __mul__

    def __call__(self, value: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def exact_div(self, divisor: "QPolynomial") -> "QPolynomial":
        """Quotient self / divisor; raises ArithmeticError unless exact."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        dlen = len(divisor.coeffs)
        qlen = len(rem) - dlen + 1
        if qlen <= 0:
            if self.is_zero():
                return QPolynomial.zero()
            raise ArithmeticError("inexact polynomial division")
        quot = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            c = rem[k + dlen - 1]
            if c % lead:
                raise ArithmeticError("inexact polynomial division")
            f = c // lead
            quot[k] = f
            if f:
                for j, d in enumerate(divisor.coeffs):
                    rem[k + j] -= f * d
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return QPolynomial.from_coeffs(quot)

    def text(self) -> str:
        """Human form, e.g. "1 + 2*q + 2*q^2 + q^3"."""
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
            terms.append((c < 0, body))
        out = ("-" if terms[0][0] else "") + terms[0][1]
        for neg, body in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QPolynomial":
        try:
            return cls.from_coeffs(json_int(c, "coefficient") for c in data["coeffs"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc


def q_integer(n: int) -> QPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return QPolynomial.zero()
    return QPolynomial((1,) * n)


def q_factorial(n: int) -> QPolynomial:
    """[n]_q! as the product of the q-integers 1..n; empty product is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = QPolynomial.one()
    for i in range(2, n + 1):
        out = out * q_integer(i)
    return out


def check_budget(costs: Iterable[int], budget: int, unit: str, what: str) -> None:
    """Refuse ``what`` (a noun phrase, or "to" and a verb) once its
    ``costs``, summed as they come, pass ``budget`` ``unit``, before any of
    the work starts.  The costs are read lazily, so a refusal comes as soon
    as the sum passes."""
    total = 0
    for cost in costs:
        total += cost
        if total > budget:
            raise ValueError(
                f"refusing {what}: that takes {total:,} or more {unit}, "
                f"past the budget of {budget:,} {unit}"
            )


def _check_coefficients(n: int, length: int) -> None:
    """Refuse a polynomial on a class of weight n whose coefficient list of
    ``length`` slots would take more than BYTE_BUDGET bytes, before it is
    built."""
    if 8 * length > BYTE_BUDGET:
        raise ValueError(
            f"refusing a class of weight {n:,}: its {length:,} "
            f"coefficients exceed the budget of {BYTE_BUDGET:,} bytes"
        )


# the classes bench workload: 71 keys, 930 hits in 1,001 calls
@lru_cache(maxsize=4096)
def _q_multinomial_cached(counts: tuple[int, ...]) -> QPolynomial:
    """The product over the letters of the q-binomials [t; c], t the count of
    the letters up to and including this one.  Each [t; k] is built one factor
    (1 - q^(t-k+j)) / (1 - q^j) at a time on a coefficient list cut at the
    final degree: the division by 1 - q^j is a running sum along every
    residue class mod j, and exact, since every partial product is again a
    q-binomial."""
    n = sum(counts)
    degree = (n * n - sum(c * c for c in counts)) // 2
    _check_coefficients(n, degree + 1)
    coeffs = [1] + [0] * degree
    t = 0
    for c in counts:
        t += c
        k = min(c, t - c)  # [t; c] = [t; t - c]
        for j in range(1, k + 1):
            a = t - k + j
            coeffs[a:] = [x - y for x, y in zip(coeffs[a:], coeffs)]
            for start in range(j):
                coeffs[start::j] = accumulate(coeffs[start::j])
    return QPolynomial(tuple(coeffs))


def q_multinomial(c: Composition) -> QPolynomial:
    """[n; c(1), ..., c(r)]_q, refused past BYTE_BUDGET like distribution."""
    return _q_multinomial_cached(c.counts)


@lru_cache(maxsize=256)
def _restriction(letters: tuple[int, ...]):
    """Tables that restrict rows to ``letters``: their bit mask, and for each
    row masked to it the restricted row, bit j for the letter letters[j].  A
    support of a walkable class has at most 9 letters (9! words), so the
    tables stay small.  With ``letters`` an order of 0..k-1, the mask keeps
    every row over k letters whole and the table relabels it, letter
    letters[j] renamed j.  Each letter doubles the table as it is built."""
    restricted = {0: 0}
    for j, y in enumerate(letters):
        restricted.update([(m | 1 << y, row | 1 << j) for m, row in restricted.items()])
    return sum(1 << y for y in letters), restricted


@lru_cache(maxsize=16)
def _spread(k: int):
    """For each row over k letters its bits spread to fields of ``width`` =
    k.bit_length() bits, one per letter, so that a sum of spread rows holds
    each letter's in-degree in its field; and that width."""
    width = k.bit_length()
    spread = [
        sum(1 << width * j for j in range(k) if row >> j & 1) for row in range(1 << k)
    ]
    return spread.__getitem__, width


def _restrict(u: Relation, v: Relation, support: tuple[int, ...]):
    """The restricted key of (U, V) on ``support``: the form, the rows of U
    and V restricted to the letters of ``support`` and relabelled by
    _relabel, and that order, ``order[j]`` the place in ``support`` of the
    letter relabelled j.  The rows are only masked and restricted here;
    statistics that agree on the support share the memo of _relabel."""
    mask, restricted = _restriction(support)
    return _relabel(
        tuple([restricted[u.rows[x] & mask] for x in support]),
        tuple([restricted[v.rows[x] & mask] for x in support]),
    )


# the classes bench workload: 283 keys, 2,209 hits in 2,492 calls
@lru_cache(maxsize=4096)
def _relabel(u_rows: tuple[int, ...], v_rows: tuple[int, ...]):
    """The form and order of the rows of U and V over the letters 0..k-1.

    A letter's signature is (U loop, V loop, U out-degree, U in-degree,
    V out-degree, V in-degree), and the letters are sorted by it stably, so
    ties keep their order: ``order[j]`` is the letter relabelled j, and the
    form is the rows so relabelled, by the restriction to ``order``.
    Relabelling the alphabet moves letters but not their signatures, so
    statistics that differ by a relabelling mostly share their form."""
    spread, width = _spread(len(u_rows))
    u_in = sum(map(spread, u_rows))
    v_in = sum(map(spread, v_rows))
    field = (1 << width) - 1
    signatures = [
        (
            u_row >> j & 1,
            v_row >> j & 1,
            u_row.bit_count(),
            u_in >> width * j & field,
            v_row.bit_count(),
            v_in >> width * j & field,
        )
        for j, (u_row, v_row) in enumerate(zip(u_rows, v_rows))
    ]
    order = tuple(sorted(range(len(u_rows)), key=signatures.__getitem__))
    _, relabelled = _restriction(order)
    return (
        tuple([relabelled[u_rows[j]] for j in order]),
        tuple([relabelled[v_rows[j]] for j in order]),
    ), order


def distribution(stat: MajInvStatistic, c: Composition) -> QPolynomial:
    """Sum of q**stat(w) over the rearrangement class of c.

    The polynomial of the class read in the form of its restricted key (see
    the module docstring), walked once and then read from the memo.  Refused
    before anything is built: a class whose coefficient list would take more
    than BYTE_BUDGET bytes, one of more than WORD_BUDGET words, and one
    whose walk would recurse past WALK_DEPTH_CAP.
    """
    if stat.size != c.size:
        raise ValueError("statistic and composition alphabet sizes differ")
    n = c.weight
    if n == 0:
        return QPolynomial.one()
    _check_coefficients(n, n * (n - 1) + 1)
    counts = tuple(filter(None, c.counts))
    depth = n - min(counts)
    if depth > WALK_DEPTH_CAP:
        raise ValueError(
            f"refusing the class {c.text()}: its walk would recurse {depth:,} "
            f"letters deep, past the cap of {WALK_DEPTH_CAP:,}"
        )
    check_budget((class_size(c),), WORD_BUDGET, "steps", f"the class {c.text()}")
    support = tuple(compress(range(c.size), c.counts))
    form, order = restricted_key(stat, support)
    return _walk(*form, tuple(counts[j] for j in order))


# the classes bench workload: 499 keys, 81 hits in 580 calls; the classes
# reach it through _form_distributions
@lru_cache(maxsize=4096)
def _walk(
    u_rows: tuple[int, ...], v_rows: tuple[int, ...], counts: tuple[int, ...]
) -> QPolynomial:
    """Distribution of maj'_U + inv'_V, U and V given by their bit rows over
    the letters 0..k-1, on the class with the positive letter counts
    ``counts``.

    Walks the prefix tree of the class depth first with the appending
    recurrence of the module docstring.  A prefix with one letter kind left
    has a single completion, a run of m letters y, whose gain is summed in
    closed form: the recurrence applied m times.
    """
    k = len(counts)
    n = sum(counts)
    coeffs = [0] * (n * (n - 1) + 1)  # maj + inv each at most n(n-1)/2
    u_hit = [[(row >> y) & 1 for y in range(k)] for row in u_rows]
    v_out = [[y for y in range(k) if (row >> y) & 1] for row in v_rows]
    v_self = [(v_rows[y] >> y) & 1 for y in range(k)]
    left = list(counts)
    v_gain = [0] * k  # v_gain[y] = sum over z of used_z*[z V y]
    alphabet = list(range(k))  # the inner loops iterate a list faster than a range

    def walk(p: int, x: int, value: int, kinds: int) -> None:
        # p letters placed, the last one x (any letter at p = 0, where the
        # maj step p*[x U y] is 0); kinds letter kinds still to place
        ux = u_hit[x]
        if kinds == 1:
            for y in alphabet:
                m = left[y]
                if m:
                    runs = m * (m - 1) // 2
                    gain = (p if ux[y] else 0) + m * v_gain[y]
                    if u_hit[y][y]:
                        gain += (m - 1) * p + runs
                    if v_self[y]:
                        gain += runs
                    coeffs[value + gain] += 1
                    return
        for y in alphabet:
            m = left[y]
            if m:
                left[y] = m - 1
                step = value + v_gain[y] + (p if ux[y] else 0)
                outs = v_out[y]
                for t in outs:
                    v_gain[t] += 1
                walk(p + 1, y, step, kinds - 1 if m == 1 else kinds)
                for t in outs:
                    v_gain[t] -= 1
                left[y] = m

    walk(0, 0, 0, k)
    del walk  # walk refers to itself; unbinding frees it now, not at the next GC
    top = max(compress(range(len(coeffs)), coeffs))  # the class is not empty
    return QPolynomial(tuple(coeffs[: top + 1]))


def certificate_steps(r: int, max_weight: int):
    """The steps of a certificate over [r] per weight n <= max_weight: one
    per word of weight n, which the walk visits in Python, and one per 16 of
    the coefficient slots that the walks of the classes of weight n allocate
    and scan in C, n(n-1)+1 each.  Read lazily, since the words alone grow
    as r**n."""
    for n in range(max_weight + 1):
        slots = math.comb(n + r - 1, r - 1) * (n * (n - 1) + 1)
        yield r**n + slots // 16


def supports(r: int, max_weight: int) -> tuple[tuple[int, ...], ...]:
    """The supports of the non-empty classes over [r] of weight <= max_weight:
    the sets of 1..min(r, max_weight) letters, 0-based, smallest sets first.
    The classes on a support run by weight, then in lex order of their
    counts, the order of full_support_counts(len(support), max_weight).

    A certificate over these classes is refused before anything is walked:
    max_weight past BYTE_BUDGET as distribution refuses it, and a request of
    more than WORD_BUDGET steps (certificate_steps), which refuses weights
    past 369 over [1], 18 over [2], 12 over [3] and 9 over [4].  Under that
    budget no walk recurses past WALK_DEPTH_CAP: a class over [1] has one
    letter kind, and over two or more letters the weight stays below 20.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    _check_coefficients(max_weight, max_weight * (max_weight - 1) + 1)
    what = f"a certificate up to weight {max_weight:,} over [{r}]"
    check_budget(certificate_steps(r, max_weight), WORD_BUDGET, "steps", what)
    return _letter_sets(r, max_weight)


# memoized: a new iterator per certificate made the classes suites 4-9% slower
@lru_cache(maxsize=16)
def _letter_sets(r: int, max_weight: int) -> tuple[tuple[int, ...], ...]:
    """supports(r, max_weight) without its budget checks, which the caller made."""
    sizes = range(1, min(r, max_weight) + 1)
    return tuple(chain.from_iterable(combinations(range(r), k) for k in sizes))


def _placed(r: int, support: tuple[int, ...], counts: tuple[int, ...]) -> Composition:
    """The class over [r] with ``counts`` on the letters of ``support``."""
    at = dict(zip(support, counts))
    return Composition(tuple(at.get(x, 0) for x in range(r)))


@lru_cache(maxsize=16)
def full_support_counts(k: int, max_weight: int) -> tuple[tuple[int, ...], ...]:
    """The counts of the classes over [k] that use every letter, of weight
    <= max_weight, in the order of compositions_up_to."""
    return tuple(c.counts for c in compositions_up_to(k, max_weight) if all(c.counts))


def restricted_key(stat: MajInvStatistic, support: tuple[int, ...]):
    """The restricted key of ``stat`` on ``support`` (0-based letters): its
    form and order, as _restrict gives them."""
    return _restrict(stat.maj_relation, stat.inv_relation, support)


# the classes bench workload: 99 keys, 424 hits in 523 calls
@lru_cache(maxsize=1024)
def _form_distributions(form, max_weight: int) -> tuple[QPolynomial, ...]:
    """The polynomials of the classes of full_support_counts(k, max_weight)
    in the labels of ``form``, k its letters, walked once per form."""
    u_rows, v_rows = form
    return tuple(
        _walk(u_rows, v_rows, counts)
        for counts in full_support_counts(len(u_rows), max_weight)
    )


# the classes bench workload: 31 keys, 453 hits in 484 calls
@lru_cache(maxsize=256)
def _gather(order: tuple[int, ...], max_weight: int) -> tuple[int, ...]:
    """For each class of full_support_counts(k, max_weight), k = len(order),
    the place in that tuple of the same class relabelled by ``order``: the
    counts c read as (c[order[0]], ..., c[order[k-1]])."""
    classes = full_support_counts(len(order), max_weight)
    place = {counts: i for i, counts in enumerate(classes)}
    return tuple(place[tuple(counts[j] for j in order)] for counts in classes)


def distributions_up_to(stat: MajInvStatistic, max_weight: int) -> list[QPolynomial]:
    """distribution(stat, c) for every c in compositions_up_to(stat.size,
    max_weight), in that order, refused as supports refuses."""
    supports(stat.size, max_weight)
    return [distribution(stat, c) for c in compositions_up_to(stat.size, max_weight)]


@lru_cache(maxsize=16)
def _support_q_multinomials(k: int, max_weight: int) -> tuple[QPolynomial, ...]:
    return tuple(_q_multinomial_cached(c) for c in full_support_counts(k, max_weight))


# the classes bench workload: 39 keys, 1,071 hits in 1,110 calls
@lru_cache(maxsize=4096)
def _is_mahonian_on(form, max_weight: int) -> bool:
    """Whether the form is mahonian on every class of its full support up to
    max_weight: one comparison of whole tuples.  The q-multinomial does not
    change when the counts are permuted, so the form's verdict is that of
    every restricted key with this form, whatever its order."""
    expected = _support_q_multinomials(len(form[0]), max_weight)
    return _form_distributions(form, max_weight) == expected


# the classes bench workload: 74 keys, 204 hits in 278 calls
@lru_cache(maxsize=4096)
def _mahonian_verdict(u: Relation, v: Relation, max_weight: int) -> bool:
    """is_mahonian_up_to of maj'_U + inv'_V, once it is known not to be
    refused: the verdicts of its supports, up to the first that fails."""
    return all(
        _is_mahonian_on(_restrict(u, v, support)[0], max_weight)
        for support in _letter_sets(u.size, max_weight)
    )


def is_mahonian_up_to(stat: MajInvStatistic, max_weight: int) -> bool:
    """Certify equidistribution with inv on every class of weight <= max_weight.

    A finite certificate only; the bound is part of the name on purpose.
    Compared a support at a time, stopping at the first that fails, and
    memoized on (U, V, max_weight); a request past the budgets of supports
    is refused first, even when its verdict is memoized.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    supports(stat.size, max_weight)
    return _mahonian_verdict(stat.maj_relation, stat.inv_relation, max_weight)


def certificate_failures(
    stat: MajInvStatistic, max_weight: int, verdicts: dict, key_of, expected_of
) -> list:
    """(class, distribution, expected) for each class of weight <= max_weight
    over [stat.size] whose walked polynomial differs from its expected one,
    in the order of compositions_up_to: a certificate's violations.  The
    caller makes the budget checks first, with supports.

    Compared a support at a time: the walked tuple of the restricted
    statistic, its form's tuple read through the gather of its order,
    against ``expected_of(key)``, key = ``key_of(support)`` fixing both
    tuples, the verdict memoized in ``verdicts`` on that key.  A support
    whose verdict holds is passed over; the classes of any other are
    compared one by one from the two tuples, and only the failing ones are
    built."""
    failures = []
    for support in _letter_sets(stat.size, max_weight):
        key = key_of(support)
        if verdicts.get(key):
            continue
        form, order = restricted_key(stat, support)
        polys = _form_distributions(form, max_weight)
        got = tuple(map(polys.__getitem__, _gather(order, max_weight)))
        expected = expected_of(key)
        verdicts[key] = got == expected
        classes = full_support_counts(len(support), max_weight)
        failures += [
            (_placed(stat.size, support, counts), g, e)
            for counts, g, e in zip(classes, got, expected)
            if g != e
        ]
    return sorted(failures, key=lambda failure: (failure[0].weight, failure[0].counts))


def bipartitional_product_formula(c: Composition, b: Bipartition) -> QPolynomial:
    """Closed form of the distribution attached to an ordered-block relation.

    With m_l the total count of letters in block B_l:

        [n; m_1, ..., m_k]_q * prod_l multinomial(m_l; c(B_l)) * q^e,
        e = sum of beta_l * binomial(m_l, 2).

    The reflexive blocks contribute the q-power: a block of m equal letters
    related to themselves scores binomial(m, 2) whatever their placement.
    """
    if b.size != c.size:
        raise ValueError("bipartition and composition alphabet sizes differ")
    block_weights = []
    coeff = 1
    exponent = 0
    for block, beta in zip(b.blocks, b.betas):
        m = 0
        for x in block:  # multinomial(m; c(B)) as a product of binomials
            m += c.counts[x - 1]
            coeff *= math.comb(m, c.counts[x - 1])
        block_weights.append(m)
        exponent += beta * math.comb(m, 2)
    scaled = (coeff * a for a in _q_multinomial_cached(tuple(block_weights)).coeffs)
    return QPolynomial((0,) * exponent + tuple(scaled))  # coeff > 0 keeps it canonical


def _clear_memos() -> None:
    """Empty every memo of the module: the walked polynomials, the verdicts
    read from them, and the tables and keys they are read through."""
    for memo in (
        _q_multinomial_cached,
        _restriction,
        _spread,
        _relabel,
        _walk,
        _letter_sets,
        full_support_counts,
        _form_distributions,
        _gather,
        _support_q_multinomials,
        _is_mahonian_on,
        _mahonian_verdict,
    ):
        memo.cache_clear()
