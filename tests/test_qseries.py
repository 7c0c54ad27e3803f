import itertools
import math
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majinv import (
    Bipartition,
    Composition,
    MajInvStatistic,
    QPolynomial,
    Relation,
    bipartitional_product_formula,
    class_size,
    distribution,
    distributions_up_to,
    empty_relation,
    inv_stat,
    is_mahonian_up_to,
    k_maj_stat,
    maj_stat,
    q_factorial,
    q_integer,
    q_multinomial,
    qseries,
    verify_product_formula,
)
from majinv.words import compositions_of_weight, compositions_up_to, enumerate_class


def poly(*coeffs):
    return QPolynomial.from_coeffs(coeffs)


def test_canonical_form():
    assert QPolynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPolynomial.from_coeffs([]).coeffs == (0,)
    with pytest.raises(ValueError):
        QPolynomial((1, 0))
    with pytest.raises(ValueError):
        QPolynomial(())


def test_arithmetic():
    p = poly(1, 1)
    assert (p + poly(0, 1, 2)).coeffs == (1, 2, 2)
    assert (p - p).is_zero()
    assert (p * poly(1, 1)).coeffs == (1, 2, 1)
    assert (3 * p).coeffs == (3, 3)
    assert (p * 0).is_zero()
    assert QPolynomial.monomial(3).coeffs == (0, 0, 0, 1)
    assert p(10) == 11
    assert poly(1, 2, 1)(1) == 4


def test_exact_div():
    num = poly(1, 2, 2, 1)
    assert num.exact_div(poly(1, 1)).coeffs == (1, 1, 1)
    with pytest.raises(ArithmeticError):
        poly(1, 1, 1).exact_div(poly(1, 1))
    with pytest.raises(ArithmeticError):
        poly(1).exact_div(poly(1, 1))
    with pytest.raises(ZeroDivisionError):
        poly(1, 1).exact_div(QPolynomial.zero())
    assert QPolynomial.zero().exact_div(poly(1, 1)).is_zero()


def test_text_rendering():
    assert poly(1, 2, 2, 1).text() == "1 + 2*q + 2*q^2 + q^3"
    assert poly(0, 3, 0, 1).text() == "3*q + q^3"
    assert QPolynomial.zero().text() == "0"
    assert poly(1).text() == "1"
    assert poly(0, 1).text() == "q"
    assert poly(-1, 1, -2).text() == "-1 + q - 2*q^2"


def test_json_round_trip():
    p = poly(1, 0, 5)
    assert QPolynomial.from_json_dict(p.to_json_dict()) == p
    for coeffs in ([1, 0.5], [1, 2.0], [True, 1], [1, "2"]):
        with pytest.raises(ValueError, match="JSON integer"):
            QPolynomial.from_json_dict({"coeffs": coeffs})


def test_q_factorial_examples():
    assert q_factorial(0) == poly(1)
    assert q_factorial(2) == poly(1, 1)
    assert q_factorial(3) == poly(1, 2, 2, 1)
    for n in range(8):
        f = q_factorial(n)
        assert f.degree == n * (n - 1) // 2
        assert f(1) == math.factorial(n)


def test_q_multinomial_examples():
    assert q_multinomial(Composition((1, 1, 1))) == poly(1, 2, 2, 1)
    assert q_multinomial(Composition((6,))) == poly(1)
    assert q_multinomial(Composition((2, 1))) == poly(1, 1, 1)


@lru_cache(maxsize=None)
def _q_binomial(n, k):
    # Pascal-style recurrence, the independent route to the same polynomial
    if k < 0 or k > n:
        return QPolynomial.zero()
    if k == 0 or k == n:
        return QPolynomial.one()
    return _q_binomial(n - 1, k - 1) + QPolynomial.monomial(k) * _q_binomial(n - 1, k)


def test_q_multinomial_against_binomial_recurrence():
    for r in range(1, 5):
        for n in range(7):
            for c in compositions_of_weight(r, n):
                expected = QPolynomial.one()
                partial = 0
                for ci in c.counts:
                    partial += ci
                    expected = expected * _q_binomial(partial, ci)
                assert q_multinomial(c) == expected


def test_distribution_examples():
    c = Composition((1, 1, 1))
    assert distribution(inv_stat(3), c) == poly(1, 2, 2, 1)
    assert distribution(maj_stat(3), c) == poly(1, 2, 2, 1)
    # a cyclic-triangle relation is not an order: its inversion count has
    # the degenerate distribution 3q + 3q^2 on the six permutations
    cyc = Relation.from_pairs(3, [(1, 2), (2, 3), (3, 1)])
    stat = MajInvStatistic(empty_relation(3), cyc)
    assert distribution(stat, c) == poly(0, 3, 3)
    with pytest.raises(ValueError):
        distribution(inv_stat(2), c)


def test_distribution_total_mass():
    for r in (1, 2, 3):
        stat = k_maj_stat(r, min(2, r))
        for n in range(5):
            for c in compositions_of_weight(r, n):
                assert distribution(stat, c)(1) == class_size(c)


def test_is_mahonian_up_to():
    assert is_mahonian_up_to(inv_stat(3), 5)
    assert is_mahonian_up_to(k_maj_stat(3, 2), 4)
    overlapping = MajInvStatistic(
        Relation.from_pairs(2, [(1, 2)]), Relation.from_pairs(2, [(1, 2)])
    )
    assert not is_mahonian_up_to(overlapping, 2)
    with pytest.raises(ValueError):
        is_mahonian_up_to(inv_stat(2), 0)


def test_macmahon_small():
    for r in (1, 2, 3):
        inv = inv_stat(r)
        maj = maj_stat(r)
        for n in range(6):
            for c in compositions_of_weight(r, n):
                qm = q_multinomial(c)
                assert distribution(inv, c) == qm
                assert distribution(maj, c) == qm


def test_product_formula_examples():
    natural_blocks = Bipartition(((3,), (2,), (1,)), (0, 0, 0))
    assert bipartitional_product_formula(
        Composition((1, 1, 1)), natural_blocks
    ) == poly(1, 2, 2, 1)
    one_block = Bipartition(((1,),), (1,))
    for n in range(1, 7):
        assert bipartitional_product_formula(
            Composition((n,)), one_block
        ) == QPolynomial.monomial(n * (n - 1) // 2)
    two_blocks = Bipartition(((2,), (1,)), (0, 0))
    assert bipartitional_product_formula(Composition((1, 1)), two_blocks) == poly(1, 1)
    with pytest.raises(ValueError):
        bipartitional_product_formula(Composition((1, 1)), one_block)


def test_product_formula_reflexive_block_matches_brute_force():
    # one reflexive block {1,2} under a singleton {3}: the closed form must
    # track the enumerated distribution including the q-power
    bip = Bipartition(((1, 2), (3,)), (1, 0))
    from majinv import relation_from_bipartition

    h = relation_from_bipartition(bip)
    stat = MajInvStatistic(empty_relation(3), h)
    for n in range(5):
        for c in compositions_of_weight(3, n):
            assert bipartitional_product_formula(c, bip) == distribution(stat, c)


def _brute_force(stat, c):
    # the definitions word by word: the oracle of the prefix-tree walk
    values = Counter(stat.evaluate(w) for w in enumerate_class(c))
    return QPolynomial.from_coeffs(values.get(k, 0) for k in range(max(values) + 1))


def _assert_walk_matches_oracle(r, max_weight, mask_pairs):
    comps = [c for n in range(max_weight + 1) for c in compositions_of_weight(r, n)]
    for u, v in mask_pairs:
        stat = MajInvStatistic(Relation.from_mask(r, u), Relation.from_mask(r, v))
        for c in comps:
            assert distribution(stat, c) == _brute_force(stat, c), (u, v, c.counts)


def test_distribution_matches_brute_force_exhaustively_small():
    # every (U, V) pair at r <= 2 on every class of weight <= 6
    for r in (1, 2):
        masks = range(1 << (r * r))
        _assert_walk_matches_oracle(r, 6, [(u, v) for u in masks for v in masks])


def test_distribution_matches_brute_force_sampled():
    rng = random.Random(20081)
    for r, max_weight, samples in ((3, 5, 300), (4, 4, 50)):
        top = 1 << (r * r)
        pairs = [(rng.randrange(top), rng.randrange(top)) for _ in range(samples)]
        _assert_walk_matches_oracle(r, max_weight, pairs)


def test_distribution_edge_classes():
    # n = 0 is the constant 1, whatever the statistic; letters with count 0
    # take no part; the alphabet sizes must agree
    full = MajInvStatistic(Relation.from_mask(3, 511), Relation.from_mask(3, 511))
    assert distribution(full, Composition((0, 0, 0))) == QPolynomial.one()
    for c in (Composition((2, 0, 3)), Composition((0, 4, 0)), Composition((0, 1, 2))):
        assert distribution(full, c) == _brute_force(full, c)
        assert distribution(full, c)(1) == class_size(c)
    # a single letter kind scores binomial(n, 2) twice, maj and inv alike
    assert distribution(full, Composition((0, 0, 4))) == QPolynomial.monomial(12)
    with pytest.raises(ValueError):
        distribution(full, Composition((1, 1)))
    with pytest.raises(ValueError):
        distribution(full, Composition((0, 0, 0, 0)))


def _clear_memo():
    qseries._clear_memos()


def _assert_memo_matches_oracle_in_two_shuffled_orders(stats, max_weight, rng):
    cases = [
        (stat, c)
        for stat in stats
        for c in compositions_up_to(stat.size, max_weight)
        if c.weight
    ]
    expected = {case: _brute_force(*case) for case in cases}
    for _ in range(2):
        rng.shuffle(cases)
        _clear_memo()
        for case in cases:
            assert distribution(*case) == expected[case], (
                case[0].maj_relation.mask,
                case[0].inv_relation.mask,
                case[1].counts,
            )


def test_memo_matches_oracle_in_shuffled_orders():
    # a cold memo filled in two different orders, with classes that leave
    # letters out, must give the oracle's polynomial on every call
    rng = random.Random(2008)
    for r in (1, 2, 3):
        top = 1 << (r * r)
        masks = [(rng.randrange(top), rng.randrange(top)) for _ in range(10)]
        stats = {
            MajInvStatistic(Relation.from_mask(r, u), Relation.from_mask(r, v))
            for u, v in masks
        }
        _assert_memo_matches_oracle_in_two_shuffled_orders(stats, 4, rng)


# on the support {1, 3} of AGREEING_CLASS, both statistics are U = {(1,3)},
# V = {(3,1)}; elsewhere they differ
AGREEING_CLASS = Composition((2, 0, 1))
AGREEING_ON_13 = (
    MajInvStatistic(Relation.from_pairs(3, [(1, 3)]), Relation.from_pairs(3, [(3, 1)])),
    MajInvStatistic(
        Relation.from_pairs(3, [(1, 3), (2, 1), (2, 2)]),
        Relation.from_pairs(3, [(3, 1), (1, 2), (3, 2)]),
    ),
)


def test_memo_entry_is_shared_exactly_when_the_support_agrees():
    c = AGREEING_CLASS
    a, b = AGREEING_ON_13
    _clear_memo()
    assert distribution(a, c) == distribution(b, c) == _brute_force(a, c)
    assert (qseries._walk.cache_info().hits, qseries._walk.cache_info().currsize) == (1, 1)
    # the same restricted key from another alphabet position: letters 2 < 3
    # play the parts of 1 < 3
    moved = MajInvStatistic(Relation.from_pairs(3, [(2, 3)]), Relation.from_pairs(3, [(3, 2)]))
    assert distribution(moved, Composition((0, 2, 1))) == distribution(a, c)
    assert qseries._walk.cache_info().currsize == 1
    # differing on the support in U's diagonal, in V alone, or in the
    # counts gives a new entry each
    others = [
        (MajInvStatistic(Relation.from_pairs(3, [(1, 3), (1, 1)]), a.inv_relation), c),
        (MajInvStatistic(a.maj_relation, Relation.from_pairs(3, [(3, 1), (1, 3)])), c),
        (a, Composition((1, 0, 2))),
    ]
    for size, (stat, cls) in enumerate(others, start=2):
        assert distribution(stat, cls) == _brute_force(stat, cls)
        assert qseries._walk.cache_info().currsize == size


def test_relabel_memo_entry_is_shared_when_the_restricted_rows_agree():
    # the signature sort and relabelling of the same restricted rows are
    # done once for both statistics
    a, b = AGREEING_ON_13
    _clear_memo()
    assert distribution(a, AGREEING_CLASS) == distribution(b, AGREEING_CLASS)
    relabel = qseries._relabel.cache_info()
    assert (relabel.currsize, relabel.hits) == (1, 1)
    for stat in AGREEING_ON_13:
        _assert_up_to_matches(stat, 4, _brute_force)


def test_restriction_to_an_order_relabels_every_row():
    # _relabel renames letters through the restriction table of its order
    for k in range(1, 6):
        for order in itertools.permutations(range(k)):
            mask, restricted = qseries._restriction(order)
            assert mask == (1 << k) - 1
            assert [restricted[row] for row in range(1 << k)] == [
                sum(1 << j for j, x in enumerate(order) if row >> x & 1)
                for row in range(1 << k)
            ]


def _relabelled(stat, perm):
    # the statistic with each letter x renamed perm[x - 1]
    def image(rel):
        pairs = [(perm[x - 1], perm[y - 1]) for x, y in rel.pairs()]
        return Relation.from_pairs(rel.size, pairs)

    return MajInvStatistic(image(stat.maj_relation), image(stat.inv_relation))


def _stat(r, u_pairs, v_pairs):
    return MajInvStatistic(Relation.from_pairs(r, u_pairs), Relation.from_pairs(r, v_pairs))


def test_relabelled_memo_matches_brute_force_exhaustively_small():
    # every (U, V) at r <= 2 on every class of weight <= 5, so statistics
    # whose restrictions share a form read each other's walks
    rng = random.Random(19)
    for r in (1, 2):
        masks = range(1 << (r * r))
        stats = [
            MajInvStatistic(Relation.from_mask(r, u), Relation.from_mask(r, v))
            for u in masks
            for v in masks
        ]
        _assert_memo_matches_oracle_in_two_shuffled_orders(stats, 5, rng)


# letters that tie on the signature: no relation, a cyclic tournament, and
# the cyclic split of criterion 6
TIED_R3 = (
    _stat(3, [], []),
    _stat(3, [(1, 2), (2, 3), (3, 1)], []),
    _stat(3, [], [(1, 3), (3, 2), (2, 1)]),
    _stat(3, [(1, 2), (2, 3), (3, 1)], [(1, 2), (2, 3), (3, 1)]),
    _stat(3, [(1, 2)], [(2, 3), (3, 1)]),
)


def test_relabelled_memo_matches_brute_force_sampled_r3():
    rng = random.Random(2019)
    stats = [
        MajInvStatistic(Relation.from_mask(3, u), Relation.from_mask(3, v))
        for u, v in ((rng.randrange(512), rng.randrange(512)) for _ in range(16))
    ]
    stats += [
        _relabelled(stat, perm)
        for stat in TIED_R3
        for perm in itertools.permutations((1, 2, 3))
    ]
    _assert_memo_matches_oracle_in_two_shuffled_orders(stats, 5, rng)


def _class_orbits(stats, max_weight):
    # the (restricted statistic, counts) pairs of the non-empty classes, up
    # to relabelling: each keyed by its least image over every order of its
    # support, found by brute force
    orbits = set()
    for stat in stats:
        for c in compositions_up_to(stat.size, max_weight):
            support = [x for x in range(1, c.size + 1) if c.counts[x - 1]]
            if support:
                orbits.add(
                    min(
                        tuple(
                            tuple(rel.contains(x, y) for x in letters for y in letters)
                            for rel in (stat.maj_relation, stat.inv_relation)
                        )
                        + (tuple(c.counts[x - 1] for x in letters),)
                        for letters in itertools.permutations(support)
                    )
                )
    return len(orbits)


def test_relabelled_statistics_share_one_walk_per_class_orbit():
    # no two letters of this statistic tie on the signature on any support,
    # so its six images walk each class orbit once, as it does alone
    stat = _stat(3, [(1, 2), (2, 2)], [(3, 1), (1, 1)])
    images = [_relabelled(stat, perm) for perm in itertools.permutations((1, 2, 3))]
    orbits = _class_orbits([stat], 5)
    assert orbits == _class_orbits(images, 5)
    _clear_memo()
    distributions_up_to(stat, 5)
    assert qseries._walk.cache_info().currsize == orbits
    for image in images:
        _assert_up_to_matches(image, 5, _brute_force)
    assert qseries._walk.cache_info().currsize == orbits
    # the classes (2, 1) and (1, 2) of the support {1, 3} differ, so counts
    # read in the wrong labels would show
    a, b = Composition((2, 0, 1)), Composition((1, 0, 2))
    assert distribution(stat, a) != distribution(stat, b)


def test_clear_memos_empties_every_memo_of_the_module():
    stat = _stat(3, [(1, 2)], [(2, 3), (3, 1)])
    distributions_up_to(stat, 4)
    verify_product_formula(2, 3)  # reads the walked tuples through their gathers
    assert is_mahonian_up_to(maj_stat(3), 4)
    bipartitional_product_formula(Composition((1, 2)), Bipartition(((1, 2),), (0,)))
    memos = {
        name: memo
        for name, memo in vars(qseries).items()
        if hasattr(memo, "cache_info") and memo.__module__ == qseries.__name__
    }
    assert "_walk" in memos and "_form_distributions" in memos
    assert [name for name, memo in memos.items() if not memo.cache_info().currsize] == []
    qseries._clear_memos()
    assert [name for name, memo in memos.items() if memo.cache_info().currsize] == []


def _q_multinomial_by_factorials(counts):
    # [n]! / ([c1]! ... [cr]!) by exact division: the definition
    num = q_factorial(sum(counts))
    for c in counts:
        num = num.exact_div(q_factorial(c))
    return num


def test_q_multinomial_matches_the_factorial_quotient():
    qseries._q_multinomial_cached.cache_clear()
    for r in (1, 2, 3):
        for c in compositions_up_to(r, 8):
            assert q_multinomial(c) == _q_multinomial_by_factorials(c.counts), c


def test_q_multinomial_refuses_a_class_past_the_byte_budget(monkeypatch):
    # [n; c] has degree (n^2 - sum c^2) / 2: 13 slots for (3, 4), 8 for (7, 1)
    monkeypatch.setattr(qseries, "BYTE_BUDGET", 8 * 12)
    qseries._q_multinomial_cached.cache_clear()
    assert q_multinomial(Composition((7, 1))) == poly(1, 1, 1, 1, 1, 1, 1, 1)
    assert q_multinomial(Composition((100,))) == poly(1)
    with pytest.raises(ValueError, match="budget"):
        q_multinomial(Composition((3, 4)))
    qseries._q_multinomial_cached.cache_clear()


def _assert_up_to_matches(stat, max_weight, oracle):
    comps = compositions_up_to(stat.size, max_weight)
    assert distributions_up_to(stat, max_weight) == [oracle(stat, c) for c in comps]


def test_distributions_up_to_matches_distribution_exhaustively_small():
    for r in (1, 2):
        masks = range(1 << (r * r))
        for u in masks:
            for v in masks:
                stat = MajInvStatistic(Relation.from_mask(r, u), Relation.from_mask(r, v))
                for max_weight in range(7):
                    _assert_up_to_matches(stat, max_weight, distribution)


def test_distributions_up_to_matches_brute_force_sampled():
    rng = random.Random(80421)
    _clear_memo()
    for r, max_weight, samples in ((3, 5, 40), (4, 4, 12)):
        top = 1 << (r * r)
        for _ in range(samples):
            u, v = rng.randrange(top), rng.randrange(top)
            stat = MajInvStatistic(Relation.from_mask(r, u), Relation.from_mask(r, v))
            _assert_up_to_matches(stat, max_weight, _brute_force)


def test_distributions_up_to_places_each_class_by_its_support():
    # (2,0,1) and (0,2,1) share their non-zero counts (2, 1) but not their
    # support; U = {(1,3)} tells them apart, so a polynomial filed under the
    # wrong support shows
    stat = MajInvStatistic(Relation.from_pairs(3, [(1, 3)]), empty_relation(3))
    comps = compositions_up_to(3, 3)
    got = dict(zip(comps, distributions_up_to(stat, 3)))
    a, b = Composition((2, 0, 1)), Composition((0, 2, 1))
    assert _brute_force(stat, a) != _brute_force(stat, b)
    assert (got[a], got[b]) == (_brute_force(stat, a), _brute_force(stat, b))


def test_distributions_up_to_edges(monkeypatch):
    # weight 0 is the class with empty support, whose polynomial is 1
    full = MajInvStatistic(Relation.from_mask(2, 15), Relation.from_mask(2, 15))
    assert distributions_up_to(full, 0) == [QPolynomial.one()]
    assert distributions_up_to(full, 3)[0] == QPolynomial.one()
    with pytest.raises(ValueError):
        distributions_up_to(full, -1)
    monkeypatch.setattr(qseries, "BYTE_BUDGET", 8 * (6 * 5 + 1))
    assert len(distributions_up_to(full, 6)) == 28
    with pytest.raises(ValueError, match="budget"):
        distributions_up_to(full, 7)


def test_distribution_refuses_a_class_past_the_byte_budget(monkeypatch):
    # at weight n the coefficient list has n(n-1)+1 slots of 8 bytes; the
    # budget is checked before the memo, so a cached class is refused too
    stat = inv_stat(2)
    assert distribution(stat, Composition((4, 3))) == q_multinomial(Composition((4, 3)))
    monkeypatch.setattr(qseries, "BYTE_BUDGET", 8 * (6 * 5 + 1))
    assert distribution(stat, Composition((3, 3))) == q_multinomial(Composition((3, 3)))
    for c in (Composition((4, 3)), Composition((7, 0))):
        with pytest.raises(ValueError, match="budget"):
            distribution(stat, c)


def test_distribution_refuses_a_walk_past_the_depth_cap(monkeypatch):
    # the walk recurses n - (least non-zero count) letters deep; at the real
    # cap it still fits under the interpreter's recursion limit
    stat = inv_stat(3)
    cap = qseries.WALK_DEPTH_CAP
    c = Composition((cap, 1, 0))
    assert distribution(stat, c) == q_multinomial(c)
    with pytest.raises(ValueError, match="recurse"):
        distribution(stat, Composition((cap + 1, 1, 0)))
    monkeypatch.setattr(qseries, "WALK_DEPTH_CAP", 4)
    for counts in ((4, 1, 0), (2, 2, 2)):  # depth 4 each
        c = Composition(counts)
        assert distribution(stat, c) == q_multinomial(c)
    assert distribution(stat, Composition((9, 0, 0))) == QPolynomial.one()  # depth 0
    for counts in ((4, 1, 1), (5, 1, 0)):  # depth 5
        with pytest.raises(ValueError, match="recurse"):
            distribution(stat, Composition(counts))


def test_distribution_refuses_a_class_past_the_word_budget(monkeypatch):
    # the budget is checked before the memo, so a cached class is refused too
    stat = maj_stat(3)
    c = Composition((2, 1, 1))  # 12 words
    assert distribution(stat, c) == q_multinomial(c)
    monkeypatch.setattr(qseries, "WORD_BUDGET", 12)
    assert distribution(stat, c) == q_multinomial(c)
    monkeypatch.setattr(qseries, "WORD_BUDGET", 11)
    with pytest.raises(ValueError, match="budget"):
        distribution(stat, c)


def test_memoized_verdict_is_refused_past_the_word_budget(monkeypatch):
    # the budget is checked before the verdict memo, so a memoized verdict
    # is refused too; certificate_steps(2, 3) sum to 16
    stat = inv_stat(2)
    _clear_memo()
    assert is_mahonian_up_to(stat, 3)
    monkeypatch.setattr(qseries, "WORD_BUDGET", 16)
    assert is_mahonian_up_to(stat, 3)
    assert qseries._mahonian_verdict.cache_info()[:2] == (1, 1)  # hits, misses
    monkeypatch.setattr(qseries, "WORD_BUDGET", 15)
    with pytest.raises(ValueError, match="budget"):
        is_mahonian_up_to(stat, 3)


def test_certificates_refuse_requests_past_the_word_budget(monkeypatch):
    # a certificate up to weight W over [r] takes, per weight n <= W, one
    # step per word, r**n, and one per 16 of the n(n-1)+1 coefficient slots
    # of each class of weight n
    stat = inv_stat(2)
    assert list(qseries.certificate_steps(2, 3)) == [1, 2, 4, 8 + 28 // 16]
    assert list(qseries.certificate_steps(1, 9)) == [1, 1, 1, 1, 1, 2, 2, 3, 4, 5]
    # the edges of the default budget: the slots decide over [1] and [2]
    for r, edge in ((1, 369), (2, 18), (3, 12), (4, 9)):
        steps = list(qseries.certificate_steps(r, edge + 1))
        assert sum(steps[:-1]) <= qseries.WORD_BUDGET < sum(steps), r
    monkeypatch.setattr(qseries, "WORD_BUDGET", 15)
    with pytest.raises(ValueError, match="budget"):
        is_mahonian_up_to(stat, 3)
    monkeypatch.setattr(qseries, "WORD_BUDGET", 16)
    assert is_mahonian_up_to(stat, 3)
    for weight in (4, 10**4):
        with pytest.raises(ValueError, match="budget"):
            distributions_up_to(stat, weight)
    assert len(distributions_up_to(maj_stat(1), 8)) == 9  # 16 steps
    for weight in (9, 11000):
        with pytest.raises(ValueError, match="budget"):
            distributions_up_to(maj_stat(1), weight)


coeffs_st = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6)


@settings(max_examples=150)
@given(coeffs_st, coeffs_st)
def test_multiplication_commutes(a, b):
    pa, pb = QPolynomial.from_coeffs(a), QPolynomial.from_coeffs(b)
    assert pa * pb == pb * pa


@settings(max_examples=100)
@given(coeffs_st, coeffs_st, coeffs_st)
def test_multiplication_associates_and_distributes(a, b, c):
    pa, pb, pc = (QPolynomial.from_coeffs(x) for x in (a, b, c))
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


@settings(max_examples=100)
@given(coeffs_st, coeffs_st)
def test_exact_division_inverts_multiplication(a, b):
    pa, pb = QPolynomial.from_coeffs(a), QPolynomial.from_coeffs(b)
    if pb.is_zero():
        return
    assert (pa * pb).exact_div(pb) == pa


def test_q_integer():
    assert q_integer(0).is_zero()
    assert q_integer(1) == poly(1)
    assert q_integer(4) == poly(1, 1, 1, 1)
    with pytest.raises(ValueError):
        q_integer(-1)
