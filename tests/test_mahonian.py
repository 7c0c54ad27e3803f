import itertools
import json
import random
import time

import numpy as np
import pytest

from conftest import kappa_extension_by_definition
from majinv import (
    Composition,
    MajInvStatistic,
    Relation,
    distribution,
    empty_relation,
    is_kappa_extension,
    is_mahonian_up_to,
    is_total_order,
    kappa_closure,
    natural_order,
    q_factorial,
    set_maj_stat,
    u_k,
    v_k,
)
from majinv.mahonian import (
    enumerate_mahonian_stats,
    enumerate_relations,
    verify_classification,
    verify_distinctness,
    verify_equidistribution,
    verify_kappa_machinery,
    verify_macmahon,
    verify_product_formula,
    verify_psi,
    verify_theorem_majinv,
)
from majinv.relations import total_orders
from majinv.transform import psi
from majinv.words import (
    _trusted_word,
    compositions_of_weight,
    enumerate_class,
    words_of_length,
)


def test_enumerate_relations_counts():
    assert sum(1 for _ in enumerate_relations(1)) == 2
    assert sum(1 for _ in enumerate_relations(2)) == 16
    with pytest.raises(ValueError):
        next(enumerate_relations(5))


def test_supersets_of_chain_count():
    chain = Relation.from_pairs(3, [(1, 2), (2, 3)])
    count = sum(1 for u in enumerate_relations(3) if chain.issubset(u))
    assert count == 128


def test_enumerate_mahonian_stats_r1():
    stats = list(enumerate_mahonian_stats(empty_relation(1)))
    assert len(stats) == 1
    assert stats[0].maj_relation == empty_relation(1)
    assert stats[0].inv_relation == empty_relation(1)


def test_enumerate_mahonian_stats_r2():
    stats = list(enumerate_mahonian_stats(natural_order(2)))
    pairs = {(s.maj_relation.pairs(), s.inv_relation.pairs()) for s in stats}
    assert pairs == {(((2, 1),), ()), ((), ((2, 1),))}


def test_enumerate_mahonian_stats_r3():
    order = natural_order(3)
    stats = list(enumerate_mahonian_stats(order))
    assert len(stats) == 6
    seen = set()
    for stat in stats:
        u, v = stat.maj_relation, stat.inv_relation
        assert (u & v) == empty_relation(3)
        assert (u | v) == order
        assert is_kappa_extension(order, u)
        assert is_mahonian_up_to(stat, 4)
        seen.add((u.pairs(), v.pairs()))
    assert len(seen) == 6
    with pytest.raises(ValueError):
        list(enumerate_mahonian_stats(Relation.from_pairs(2, [(1, 2), (2, 1)])))


def test_verify_equidistribution_examples():
    u = Relation.from_pairs(3, [(1, 2)])
    s = Relation.from_pairs(3, [(1, 2), (1, 3)])
    assert verify_equidistribution(u, s, 4)
    chain = Relation.from_pairs(3, [(1, 2), (2, 3)])
    assert not verify_equidistribution(chain, kappa_closure(chain), 3)
    for mask in (0, 5, 17, 511):
        s = Relation.from_mask(3, mask)
        assert verify_equidistribution(empty_relation(3), s, 3)


def test_theorem_majinv_small_sizes():
    report = verify_theorem_majinv(1, 3)
    assert report.checked == 4 and report.ok
    report = verify_theorem_majinv(2, 4)
    assert report.checked == 256 and report.ok
    with pytest.raises(ValueError):
        verify_theorem_majinv(4, 4)
    for sweep in (verify_theorem_majinv, verify_classification):
        for weight in (-1, 0, 1):
            with pytest.raises(ValueError, match="vacuous"):
                sweep(2, weight)


def test_sweep_agrees_with_reference_on_samples():
    rng = random.Random(97)
    for _ in range(60):
        u = Relation.from_mask(3, rng.randrange(512))
        s = Relation.from_mask(3, rng.randrange(512))
        assert verify_equidistribution(u, s, 3) == is_kappa_extension(s, u)


def _sweep_verdicts(r, report, second, got_key, predicate):
    """Each pair's verdict in a pair-sweep Report: the predicate, unless the
    pair is listed as a violation."""
    listed = {
        (Relation.from_json_dict(v["u"]), Relation.from_json_dict(v[second])): v[
            got_key
        ]
        for v in report.violations
        if "u" in v
    }
    rels = list(enumerate_relations(r))
    return {
        (a, b): listed.get((a, b), predicate(a, b)) for a in rels for b in rels
    }


def _classified(u, v):
    s = u | v
    return (u & v) == empty_relation(u.size) and is_total_order(s) and (
        is_kappa_extension(s, u)
    )


def test_staged_sweeps_match_plain_references_r2():
    report = verify_theorem_majinv(2, 4)
    verdicts = _sweep_verdicts(
        2, report, "s", "equidistributed", lambda u, s: is_kappa_extension(s, u)
    )
    assert len(verdicts) == 256
    for (u, s), got in verdicts.items():
        assert got == verify_equidistribution(u, s, 4), (u, s)

    report = verify_classification(2, 4)
    verdicts = _sweep_verdicts(2, report, "v", "mahonian", _classified)
    for (u, v), got in verdicts.items():
        assert got == is_mahonian_up_to(MajInvStatistic(u, v), 4), (u, v)


def test_weight_two_sweeps_r3():
    # Weight 2 alone cannot tell most non-extensions apart: 19,683 pairs
    # pass it and 1701 are kappa-extensions.
    report = verify_theorem_majinv(3, 2)
    assert len(report.violations) == 17982
    assert report.witnesses["survivors_by_weight"] == {2: 19683}
    rng = random.Random(2)
    for v in rng.sample(report.violations, 300):
        u = Relation.from_json_dict(v["u"])
        s = Relation.from_json_dict(v["s"])
        assert v["equidistributed"] == verify_equidistribution(u, s, 2)
        assert v["kappa_extension"] == is_kappa_extension(s, u)

    report = verify_classification(3, 2)
    assert len(report.violations) == 29
    assert report.violations[-1] == {"count": 64, "expected_count": 36}
    for v in report.violations[:-1]:
        u = Relation.from_json_dict(v["u"])
        w = Relation.from_json_dict(v["v"])
        assert v["mahonian"] == is_mahonian_up_to(MajInvStatistic(u, w), 2)
        assert v["classified"] == _classified(u, w)


def test_survivors_by_weight_r3():
    theorem = verify_theorem_majinv(3, 5)
    assert theorem.witnesses["survivors_by_weight"] == {
        2: 19683, 3: 1701, 4: 1701, 5: 1701
    }
    classification = verify_classification(3, 5)
    assert classification.witnesses["survivors_by_weight"] == {
        2: 64, 3: 42, 4: 42, 5: 42
    }
    # heredity decides weight 2 alone, and the scored pairs are a sliver of
    # the 4**9 an unseeded sweep scores at weight 2
    assert theorem.witnesses["scored_by_weight"] == {2: 0, 3: 3195, 4: 1701, 5: 1701}
    assert classification.witnesses["scored_by_weight"] == {2: 0, 3: 64, 4: 42, 5: 42}


def _all_mask_tables(r, letters_list):
    """The inv' and maj' tables of the words over every one of the 2**(r*r)
    masks, row ``mask`` holding inv'_mask (resp. maj'_mask) of every word:
    the words' cell rows times the bits of every mask, a length at a time."""
    from majinv.mahonian import _bits, _cell_rows

    rows = ([], [])
    for n, group in itertools.groupby(letters_list, len):
        words = list(group)
        cells = _cell_rows(r, np.array(words, dtype=np.int64).reshape(len(words), n))
        for acc, part in zip(rows, cells):
            acc.append(part)
    masks = _bits(np.arange(1 << (r * r)), r)
    return tuple(masks @ np.concatenate(acc).T for acc in rows)


# The pair sweep as it was before heredity seeding: every pair on [r] scored
# on every class of each weight.  Kept as the oracle of the seeded sweep.
def _unseeded_sweep(r, max_weight, masks_of):
    """Pass arrays over flat pair indices after each weight 2..max_weight,
    and the survivor count per weight."""
    from majinv.mahonian import STAGE_CELL_BUDGET

    bits = r * r
    npairs = 1 << (2 * bits)
    alive = None  # before weight 2, every flat index
    passes, survivors = [], {}
    for n in range(2, max_weight + 1):
        letters_list, class_of = [], []
        for ci, c in enumerate(compositions_of_weight(r, n)):
            for w in enumerate_class(c):
                letters_list.append(w.letters)
                class_of.append(ci)
        stride = 1 << (n * (n - 1)).bit_length()
        keybase = np.array(class_of, dtype=np.int64) * stride
        invtab, majtab = _all_mask_tables(r, letters_list)
        want = np.sort(invtab + keybase, axis=1)
        count = npairs if alive is None else alive.size
        step = max(1, STAGE_CELL_BUDGET // keybase.size)
        kept = [np.empty(0, dtype=np.int64)]
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            idx = np.arange(lo, hi) if alive is None else alive[lo:hi]
            maj, inv, target = masks_of(r, idx >> bits, idx & ((1 << bits) - 1))
            got = np.sort(majtab[maj] + invtab[inv] + keybase, axis=1)
            kept.append(idx[(got == want[target]).all(axis=1)])
        alive = np.concatenate(kept)
        survivors[n] = int(alive.size)
        passed = np.zeros(npairs, dtype=bool)
        passed[alive] = True
        passes.append(passed)
    return passes, survivors


SWEEP_MASKS = {
    "theorem": lambda k, u, s: (u, s & ~u, s),
    "classification": lambda k, u, v: (u, v, natural_order(k).mask),
}


def _restricted_mask(r, mask, k):
    """The restriction of the relation with this mask to [r] minus the letter
    k + 1, the other letters relabelled in order, from its pairs."""
    label = {x: i for i, x in enumerate(x for x in range(1, r + 1) if x != k + 1)}
    pairs = [
        (label[x] + 1, label[y] + 1)
        for x, y in Relation.from_mask(r, mask).pairs()
        if x in label and y in label
    ]
    return Relation.from_pairs(r - 1, pairs).mask


def test_restriction_table_matches_the_pairs():
    from majinv.mahonian import _restriction_table

    for r in (2, 3):
        table = _restriction_table(r)
        assert table.shape == (r, 1 << (r * r))
        for k in range(r):
            assert table[k].tolist() == [
                _restricted_mask(r, m, k) for m in range(1 << (r * r))
            ]


@pytest.fixture(scope="module")
def unseeded():
    """The oracle's pass arrays and survivors per suite and size, to weight 5."""
    return {
        (suite, r): _unseeded_sweep(r, 5, masks_of)
        for suite, masks_of in SWEEP_MASKS.items()
        for r in (1, 2, 3)
    }


def _seeded_mismatches(unseeded):
    """The (suite, r, W) at which the seeded sweep and the oracle differ."""
    from majinv.mahonian import _staged_sweep

    bad = []
    for (suite, r), (passes, survivors) in unseeded.items():
        for w in range(2, 6):
            got, got_survivors, _ = _staged_sweep(r, w, SWEEP_MASKS[suite])
            expected = {n: survivors[n] for n in range(2, w + 1)}
            if not (np.array_equal(got, passes[w - 2]) and got_survivors == expected):
                bad.append((suite, r, w))
    return bad


def test_seeded_sweep_matches_the_unseeded_oracle(unseeded):
    assert _seeded_mismatches(unseeded) == []


def test_scored_pairs_are_the_inherited_survivors(unseeded):
    # at size 3 the pairs scored at weight n are the survivors of weight n - 1
    # whose three restrictions survived weight n at size 2
    from majinv.mahonian import _staged_sweep

    side = 1 << 9
    restrict = np.array(
        [[_restricted_mask(3, m, k) for m in range(side)] for k in range(3)]
    )
    for suite, masks_of in SWEEP_MASKS.items():
        passes, _ = unseeded[(suite, 3)]
        below, _ = unseeded[(suite, 2)]
        _, _, scored = _staged_sweep(3, 5, masks_of)
        assert scored[2] == 0  # no class of weight 2 uses all three letters
        for n in (3, 4, 5):
            prev = passes[n - 3].reshape(side, side)
            inherited = prev.copy()
            for d in restrict:
                inherited &= below[n - 2].reshape(16, 16)[d][:, d]
            assert scored[n] == int(inherited.sum()), (suite, n)


@pytest.mark.parametrize(
    "mutant",
    [
        # seeding from the restriction that drops the last letter only
        lambda table: table[-1:],
        # relabelling the rows of a restriction in order but its columns in
        # reverse
        lambda table: np.array(
            [
                sum(
                    ((m >> (i * (len(table) - 1) + j)) & 1)
                    << (i * (len(table) - 1) + len(table) - 2 - j)
                    for i in range(len(table) - 1)
                    for j in range(len(table) - 1)
                )
                for m in table.ravel().tolist()
            ]
        ).reshape(table.shape),
    ],
    ids=["last-letter-only", "columns-relabelled-in-reverse"],
)
def test_oracle_catches_a_broken_seeding(unseeded, monkeypatch, mutant):
    from majinv import mahonian

    table_of = mahonian._restriction_table
    monkeypatch.setattr(mahonian, "_restriction_table", lambda r: mutant(table_of(r)))
    assert _seeded_mismatches(unseeded) != []


def test_sweep_budget_counts_the_words_that_use_every_letter():
    from majinv.mahonian import _full_support_words

    for r in (1, 2, 3):
        for n in range(7):
            words = itertools.product(range(r), repeat=n)
            assert _full_support_words(r, n) == sum(len(set(w)) == r for w in words)
    with pytest.raises(ValueError, match="budget"):
        verify_classification(3, 11)


def _extension_matrix(r):
    """Entry [u, s] of the bounds table's test: S kappa-extends U."""
    from majinv.mahonian import _extends, _kappa_bounds_table

    bounds = _kappa_bounds_table(r)
    return _extends(np.arange(1 << (r * r)), bounds[:, None])


def test_kappa_bounds_table_matches_predicate_r3():
    matrix = _extension_matrix(3)
    rels = list(enumerate_relations(3))
    for u in rels:
        assert matrix[u.mask].tolist() == [is_kappa_extension(s, u) for s in rels]


def test_kappa_bounds_table_matches_letter_definition():
    from majinv.mahonian import _kappa_bounds_table

    # every pair at r <= 3 (262,144 at r = 3, 1,701 of them kappa-extensions)
    for r in (1, 2, 3):
        n = 1 << (r * r)
        assert _extension_matrix(r).tolist() == [
            [kappa_extension_by_definition(r, u, s) for s in range(n)] for u in range(n)
        ]
    assert int(_extension_matrix(3).sum()) == 1701
    # one shared array per alphabet size, which no caller may write
    table = _kappa_bounds_table(3)
    assert table.shape == (512, 2)
    assert _kappa_bounds_table(3) is table
    with pytest.raises(ValueError):
        table[0, 0] = ~table[0, 0]


def test_kappa_bounds_table_matches_kappa_bounds_r1_to_r4():
    from majinv.mahonian import _kappa_bounds_table
    from majinv.relations import kappa_bounds

    for r in (1, 2, 3, 4):
        table = _kappa_bounds_table(r).tolist()
        assert len(table) == 1 << (r * r)
        for u, row in enumerate(table):
            assert tuple(row) == kappa_bounds(Relation.from_mask(r, u)), (r, u)


def test_kappa_bounds_table_makes_no_relation_calls(monkeypatch):
    from majinv import mahonian, relations

    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    bounds = counted("kappa_bounds", relations.kappa_bounds)
    monkeypatch.setattr(relations, "kappa_bounds", bounds)
    monkeypatch.setattr(mahonian, "kappa_bounds", bounds, raising=False)
    monkeypatch.setattr(
        Relation, "from_mask", staticmethod(counted("from_mask", Relation.from_mask))
    )
    mahonian._kappa_bounds_table.cache_clear()
    start = time.perf_counter()
    table = mahonian._kappa_bounds_table(4)
    assert time.perf_counter() - start < 1
    assert calls == [] and table.shape == (65536, 2)
    # the counters do count: one table row the slow way
    assert tuple(table[300]) == relations.kappa_bounds(Relation.from_mask(4, 300))
    assert calls == ["from_mask", "kappa_bounds"]


def test_classification_r1():
    report = verify_classification(1, 3)
    assert report.checked == 4 and report.ok
    assert report.witnesses["mahonian_pairs"] == 1  # the zero statistic


def test_classification_r2():
    report = verify_classification(2, 4)
    assert report.checked == 256
    assert report.ok
    assert report.witnesses["mahonian_pairs"] == 4


def test_classification_r3_finds_cyclic_splits():
    # The exhaustive sweep turns up 42 mahonian pairs: the 36 order-classified
    # ones plus 6 splits of a cyclic tournament (one edge scored by position,
    # the other two edges scored as inversions).  Those six are genuinely
    # mahonian at every weight, so they are reported as violations of the
    # order-based classification.
    report = verify_classification(3, 4)
    assert report.witnesses["mahonian_pairs"] == 42
    cyclic = [v for v in report.violations if "u" in v]
    assert len(cyclic) == 6
    for v in cyclic:
        assert v["mahonian"] and not v["classified"]
        u = Relation.from_json_dict(v["u"])
        s = u | Relation.from_json_dict(v["v"])
        assert u.count() == 1 and s.count() == 3
        # the union is a cyclic tournament: total, antisymmetric, not an order
        assert not is_total_order(s)
        assert all(
            s.contains(x, y) != s.contains(y, x)
            for x in (1, 2, 3)
            for y in (1, 2, 3)
            if x != y
        )


def test_cyclic_split_is_mahonian_beyond_the_sweep_bound():
    u = Relation.from_pairs(3, [(1, 2)])
    v = Relation.from_pairs(3, [(2, 3), (3, 1)])
    stat = MajInvStatistic(u, v)
    assert is_mahonian_up_to(stat, 6)


def test_cyclic_split_mahonian_by_independent_oracle():
    # same claim, no package statistic code: raw enumeration with a
    # hand-rolled evaluator against the Gaussian-binomial recurrence
    import itertools
    from collections import Counter
    from functools import lru_cache

    from majinv import QPolynomial

    u_pairs = {(1, 2)}
    v_pairs = {(2, 3), (3, 1)}

    def value(w):
        total = 0
        for i in range(len(w) - 1):
            if (w[i], w[i + 1]) in u_pairs:
                total += i + 1
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if (w[i], w[j]) in v_pairs:
                    total += 1
        return total

    @lru_cache(maxsize=None)
    def q_binom(n, k):
        if k < 0 or k > n:
            return QPolynomial.zero()
        if k == 0 or k == n:
            return QPolynomial.one()
        return q_binom(n - 1, k - 1) + QPolynomial.monomial(k) * q_binom(n - 1, k)

    for n in range(8):
        by_class = {}
        for w in itertools.product((1, 2, 3), repeat=n):
            key = (w.count(1), w.count(2), w.count(3))
            by_class.setdefault(key, Counter())[value(w)] += 1
        for (c1, c2, c3), counter in by_class.items():
            expected = q_binom(c1 + c2, c1) * q_binom(n, c3)
            got = QPolynomial.from_coeffs(
                counter.get(k, 0) for k in range(max(counter) + 1)
            )
            assert got == expected, (c1, c2, c3)


def test_cyclic_split_proof_steps():
    # Machine-check the two halves of the inductive argument that the
    # cyclic split maj'_{(1,2)} + inv'_{(2,3),(3,1)} is mahonian at every
    # weight.
    #
    # Step 1: the class distribution D(c) obeys the appending recurrence
    #   D(c) = q^c3 D(c-e1) + D(c-e2) + (q^(n-1)-1) q^c3 D(c-e1-e2)
    #                + q^c2 D(c-e3),
    # because appending 1 (resp. 3) raises the statistic by exactly c3
    # (resp. c2) on the whole class, and appending 2 adds n-1 precisely
    # when the shorter word ends in 1.
    import itertools
    from collections import Counter

    from majinv import QPolynomial, q_integer

    u_pairs = {(1, 2)}
    v_pairs = {(2, 3), (3, 1)}

    def value(w):
        total = 0
        for i in range(len(w) - 1):
            if (w[i], w[i + 1]) in u_pairs:
                total += i + 1
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if (w[i], w[j]) in v_pairs:
                    total += 1
        return total

    dist = {}
    for n in range(8):
        for w in itertools.product((1, 2, 3), repeat=n):
            key = (w.count(1), w.count(2), w.count(3))
            dist.setdefault(key, Counter())[value(w)] += 1
    dist = {
        key: QPolynomial.from_coeffs(cnt.get(k, 0) for k in range(max(cnt) + 1))
        for key, cnt in dist.items()
    }

    def d(c1, c2, c3):
        if min(c1, c2, c3) < 0:
            return QPolynomial.zero()
        return dist[(c1, c2, c3)]

    q = QPolynomial.monomial(1)
    one = QPolynomial.one()
    for (c1, c2, c3), poly in dist.items():
        n = c1 + c2 + c3
        if n == 0:
            continue
        rhs = (
            QPolynomial.monomial(c3) * d(c1 - 1, c2, c3)
            + d(c1, c2 - 1, c3)
            + (QPolynomial.monomial(n - 1) - one)
            * QPolynomial.monomial(c3)
            * d(c1 - 1, c2 - 1, c3)
            + QPolynomial.monomial(c2) * d(c1, c2, c3 - 1)
        )
        assert poly == rhs, (c1, c2, c3)

    # Step 2: subtracting the classical q-multinomial recurrence (append 1,
    # 2 or 3 last, adding c2+c3, c3 or 0 inversions) leaves, after clearing
    # denominators, the polynomial identity
    #   q^c3 (1-q^c2)[c1][n-1] + (1-q^c3)[c2][n-1] + (q^c2-1)[c3][n-1]
    #       + (q^(n-1)-1) q^c3 [c1][c2]  ==  0,
    # so both recurrences produce the same polynomials from equal bases.
    bracket = q_integer
    for c1 in range(7):
        for c2 in range(7):
            for c3 in range(7):
                n = c1 + c2 + c3
                if n == 0:
                    continue
                term_a = (
                    QPolynomial.monomial(c3)
                    * (one - QPolynomial.monomial(c2))
                    * bracket(c1)
                    * bracket(n - 1)
                )
                term_b = (one - QPolynomial.monomial(c3)) * bracket(c2) * bracket(n - 1)
                term_c = (QPolynomial.monomial(c2) - one) * bracket(c3) * bracket(n - 1)
                term_d = (
                    (QPolynomial.monomial(n - 1) - one)
                    * QPolynomial.monomial(c3)
                    * bracket(c1)
                    * bracket(c2)
                )
                assert (term_a + term_b + term_c + term_d).is_zero(), (c1, c2, c3)


def test_distinctness_r2():
    report = verify_distinctness(2, 3)
    assert report.checked == 6 and report.ok
    assert len(report.witnesses["first_separators"]) == 6


def test_distinctness_needs_words_longer_than_one():
    report = verify_distinctness(2, 1)
    assert not report.ok
    assert len(report.violations) == 6  # every pair collides on single letters


def _listed_distinctness(r, max_len):
    """The oracle of verify_distinctness: list every word up to max_len, then
    scan them pair by pair, in pair order, for each pair's first separator."""
    from majinv import mahonian

    stats = [
        st for order in total_orders(r) for st in mahonian.enumerate_mahonian_stats(order)
    ]
    words = [w for n in range(1, max_len + 1) for w in words_of_length(r, n)]
    report = mahonian.Report(checked=len(stats) * (len(stats) - 1) // 2)
    separators = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(stats), 2):
        witness = next((w for w in words if a.evaluate(w) != b.evaluate(w)), None)
        if witness is None:
            report.violations.append(
                {"stat_a": mahonian._stat_json(a), "stat_b": mahonian._stat_json(b)}
            )
        else:
            separators[f"{i},{j}"] = witness.text()
    report.witnesses = {
        "statistics": [mahonian._stat_json(st) for st in stats],
        "first_separators": separators,
    }
    return report


def _doubled_statistics(monkeypatch):
    """From now on, the first statistic below each total order is listed twice
    in a row, so that those pairs cannot separate."""
    from majinv import mahonian

    listed = mahonian.enumerate_mahonian_stats

    def doubled(order):
        stats = list(listed(order))
        return [stats[0]] + stats

    monkeypatch.setattr(mahonian, "enumerate_mahonian_stats", doubled)


def test_distinctness_matches_the_listed_scan():
    for r in (1, 2, 3):
        for max_len in range(9):
            got = verify_distinctness(r, max_len)
            assert _same_reports(got, _listed_distinctness(r, max_len)), (r, max_len)


def test_distinctness_reads_words_until_every_pair_is_separated(words_read):
    for r, max_len, count in ((3, 12, 21), (2, 19, 10), (1, 5000, 0)):
        del words_read[:]
        report = verify_distinctness(r, max_len)
        assert report.ok and len(words_read) == count, (r, max_len)
        firsts = report.witnesses["first_separators"]
        assert len(firsts) == report.checked
        # the last word read is the last pair's first separator
        assert not words_read or words_read[-1].text() in firsts.values()
    # one statistic leaves no pair, so the size-1 edge is the budget's own
    del words_read[:]
    assert verify_distinctness(1, 1 << 20).ok and not words_read
    with pytest.raises(ValueError, match="budget"):
        verify_distinctness(1, (1 << 20) + 1)


def test_distinctness_reads_every_word_while_a_pair_cannot_separate(
    monkeypatch, words_read
):
    report = verify_distinctness(2, 1)
    assert len(words_read) == 2 and len(report.violations) == 6
    _doubled_statistics(monkeypatch)
    for r, max_len, words, pairs in ((2, 3, 14, 2), (3, 3, 39, 6)):
        del words_read[:]
        report = verify_distinctness(r, max_len)
        assert len(words_read) == words and len(report.violations) == pairs, r
        # the doubled pairs are listed in pair order, among separated ones
        assert _same_reports(report, _listed_distinctness(r, max_len)), r
    # once the other pairs are separated, a word evaluates only the two
    # statistics of each open pair
    evaluated = []
    evaluate = MajInvStatistic.evaluate
    monkeypatch.setattr(
        MajInvStatistic,
        "evaluate",
        lambda stat, word: evaluated.append(len(words_read)) or evaluate(stat, word),
    )
    del words_read[:]
    assert len(verify_distinctness(3, 6).violations) == 6
    assert len(words_read) == 1092 and evaluated.count(len(words_read)) == 12


def test_distinctness_holds_no_word_list():
    # the pass at max_len 12 reads the same 21 words over [3] as at 3; a list
    # of the 797,160 words up to length 12 would take the peak past 100 MB
    import tracemalloc

    peaks = []
    for max_len in (3, 12):
        tracemalloc.start()
        try:
            assert verify_distinctness(3, max_len).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (1 << 20)


def test_kappa_machinery_r2():
    report = verify_kappa_machinery(2)
    assert report.ok
    assert report.witnesses["bipartitional"] == sum(
        1 for u in enumerate_relations(2) if is_kappa_extension(u, u)
    )


def test_kappa_machinery_r4():
    report = verify_kappa_machinery(4)
    assert report.ok and report.checked == 65538
    assert report.witnesses == {"kappa_extensible": 2112, "bipartitional": 730}
    with pytest.raises(ValueError, match="past the budget of 1,048,576 relations"):
        verify_kappa_machinery(5)


def _closure_faults(monkeypatch, name, wrong):
    """verify_kappa_machinery(2) with mahonian's ``name`` replaced by a
    version that returns wrong(u) where that is not None."""
    from majinv import mahonian

    real = getattr(mahonian, name)

    def faulty(u):
        got = wrong(u)
        return real(u) if got is None else got

    monkeypatch.setattr(mahonian, name, faulty)
    return verify_kappa_machinery(2).violations


def _rel(pairs):
    return Relation.from_pairs(2, pairs)


def test_kappa_machinery_reports_a_self_extension_mismatch(monkeypatch):
    # {(1,2),(2,1)} is not transitive, so not bipartitional, and not an
    # extension of itself
    u = _rel([(1, 2), (2, 1)])
    found = _closure_faults(monkeypatch, "is_bipartitional", lambda v: v == u or None)
    assert found == [{"u": u.to_json_dict(), "property": "self-extension mismatch"}]


def test_kappa_machinery_reports_disagreeing_extensibility_criteria(monkeypatch):
    u = _rel([(1, 2), (2, 1)])
    found = _closure_faults(
        monkeypatch, "is_kappa_extensible", lambda v: v == u or None
    )
    disagree = {"u": u.to_json_dict(), "property": "extensibility criteria disagree"}
    assert disagree in found
    monkeypatch.undo()
    found = _closure_faults(
        monkeypatch, "is_kappa_extensible", lambda v: False if v.count() == 0 else None
    )
    assert found == [
        {"u": _rel([]).to_json_dict(), "property": "extensibility criteria disagree"}
    ]
    monkeypatch.undo()
    # a closure that lacks the forced pair (1,2) of {(1,1)} does not extend it
    u = _rel([(1, 1)])
    found = _closure_faults(
        monkeypatch, "kappa_closure", lambda v: v if v == u else None
    )
    assert found == [
        {"u": u.to_json_dict(), "property": "extensibility criteria disagree"},
        {"u": u.to_json_dict(), "property": "closure not bipartitional"},
    ]


def test_kappa_machinery_reports_a_closure_that_is_not_bipartitional(monkeypatch):
    # {(1,1)} closes to {(1,1),(1,2)}, a bipartitional relation
    closure = _rel([(1, 1), (1, 2)])
    assert kappa_closure(_rel([(1, 1)])) == closure
    found = _closure_faults(
        monkeypatch, "is_bipartitional", lambda v: False if v == closure else None
    )
    assert {"u": closure.to_json_dict(), "property": "self-extension mismatch"} in found
    for u in (_rel([(1, 1)]), closure):
        assert {"u": u.to_json_dict(), "property": "closure not bipartitional"} in found


def test_kappa_machinery_reports_a_closure_that_is_not_minimal(monkeypatch):
    # the empty relation closes to itself; a closure with (2,2) added still
    # extends it, but misses the extensions that lack (2,2)
    u = _rel([])
    found = _closure_faults(
        monkeypatch, "kappa_closure", lambda v: _rel([(2, 2)]) if v == u else None
    )
    not_minimal = [v for v in found if v["property"] == "closure not minimal"]
    assert not_minimal == [
        {
            "u": u.to_json_dict(),
            "s": Relation.from_mask(2, s).to_json_dict(),
            "property": "closure not minimal",
        }
        for s in range(16)
        if not s & 0b1000
    ]


def test_kappa_machinery_cross_checks_the_bounds_table(monkeypatch):
    from majinv import mahonian

    table = mahonian._kappa_bounds_table(2).copy()
    monkeypatch.setattr(mahonian, "_kappa_bounds_table", lambda r: table)
    u = _rel([(1, 1)])
    need, forbid = table[u.mask].tolist()
    assert (need, forbid) == (0b0011, 0b0100)  # {(1,1),(1,2)} and {(2,1)}
    table[u.mask, 0] = u.mask  # the forced pair (1,2) dropped from need
    found = verify_kappa_machinery(2).violations
    assert {v["property"] for v in found} == {
        "self-extension mismatch",
        "closure not minimal",
    }
    assert all(v["u"] == u.to_json_dict() for v in found)
    table[u.mask] = need, forbid | need  # an empty cube
    assert verify_kappa_machinery(2).violations == [
        {"u": u.to_json_dict(), "property": "extensibility criteria disagree"}
    ]


def test_product_formula_r2():
    report = verify_product_formula(2, 5)
    assert report.ok and report.checked > 0


def test_macmahon_r3():
    report = verify_macmahon(3, 5)
    assert report.ok
    assert report.checked == sum(
        1 for n in range(6) for _ in compositions_of_weight(3, n)
    )


def test_psi_verifier_r2():
    report = verify_psi(2, 5)
    assert report.ok
    assert report.witnesses["kappa_extensible"] == sum(
        1
        for u in enumerate_relations(2)
        if is_kappa_extension(kappa_closure(u), u)
    )
    report = verify_psi(2, 4).to_json_dict()
    del report["elapsed_ms"]
    assert report == {  # as before the verifiers shared their table builder
        "checked": 55,
        "violations": [],
        "witnesses": {
            "kappa_extensible": 12,
            "kappa_extension_pairs": 43,
            "words": 31,
            "max_len": 4,
        },
    }


def test_psi_and_closure_reports_r3():
    # every U's extensions come from the bounds table in both verifiers
    report = verify_psi(3, 6).to_json_dict()
    del report["elapsed_ms"]
    assert report == {
        "checked": 1829,
        "violations": [],
        "witnesses": {
            "kappa_extensible": 128,
            "kappa_extension_pairs": 1701,
            "words": 1093,
            "max_len": 6,
        },
    }
    report = verify_kappa_machinery(3).to_json_dict()
    del report["elapsed_ms"]
    assert report == {
        "checked": 514,
        "violations": [],
        "witnesses": {"kappa_extensible": 128, "bipartitional": 74},
    }


def test_verifiers_refuse_alphabets_below_one():
    for r in (0, -1):
        for verify, args in (
            (verify_theorem_majinv, (r, 3)),
            (verify_classification, (r, 3)),
            (verify_distinctness, (r, 3)),
            (verify_kappa_machinery, (r,)),
            (verify_product_formula, (r, 3)),
            (verify_macmahon, (r, 3)),
            (verify_psi, (r, 3)),
        ):
            with pytest.raises(ValueError, match="must be >= 1"):
                verify(*args)


def test_distinctness_refuses_a_word_list_beyond_the_memory_budget():
    # the pass may read every word up to max_len, and over [3] the 3**16 words
    # of length 16 alone pass the word budget 41 times over
    for max_len in (16, 10**9):
        with pytest.raises(ValueError, match="budget"):
            verify_distinctness(3, max_len)


def test_psi_verifier_refuses_tables_beyond_the_memory_budget():
    # the work budget refuses both before any table is built: over [3] the
    # 3**14 words of length 14 alone would take about 8.5 GB as letters,
    # images and cell rows
    for r, max_len in ((3, 14), (2, 10**9)):
        with pytest.raises(ValueError, match="budget"):
            verify_psi(r, max_len)


class _Tabulated(Exception):
    pass


def test_psi_tables_within_the_work_budget_stay_under_the_byte_budget(monkeypatch):
    # per word: its letters and, for one relation, its image letters and
    # their gather indices; its pc and ac rows, and its letters one-hot while
    # they form; its place, class key and last letter.  At the largest
    # max_len the work budget accepts, the traced peaks were 9.1, 30.8, 5.4
    # and 2.0 MiB at r = 1..4 (at r = 4 a chunk's temporaries, not the words,
    # set the peak), so no byte guard is needed past the work budget
    from majinv import mahonian, qseries
    budget = mahonian.PSI_WORK_BUDGET

    def tabulated(r, max_len):
        raise _Tabulated

    monkeypatch.setattr(mahonian, "_psi_words", tabulated)
    edges = []
    for r in (1, 2, 3, 4):
        bounds = mahonian._kappa_bounds_table(r)
        extensible = int((bounds[:, 0] & bounds[:, 1] == 0).sum())
        max_len, words = 0, 1
        while extensible * (max_len + 1) * (words + r ** (max_len + 1)) <= budget:
            max_len += 1
            words += r**max_len
        with pytest.raises(_Tabulated):  # the work budget accepts the edge
            verify_psi(r, max_len)
        with pytest.raises(ValueError, match="budget"):
            verify_psi(r, max_len + 1)
        per_word = 17 * max_len + 2 * 8 * r * r + 32 * r * max_len + 48
        assert words * per_word < qseries.BYTE_BUDGET, r
        edges.append(max_len)
    assert edges == [2895, 15, 8, 5]


def _psi_letters(u, ls):
    return psi(u, _trusted_word(ls, u.size)).letters


def _oracle_verify_psi(r, max_len, psi_letters=_psi_letters):
    """verify_psi as a loop over every (U, S): one scalar psi call per (U,
    word), and both sides of the identity read from inv' and maj' tables
    over all 2**(r*r) masks.  The oracle of the cube check."""
    from majinv.mahonian import Report, _extends, _kappa_bounds_table

    letters_list = [w.letters for n in range(max_len + 1) for w in words_of_length(r, n)]
    index = {ls: i for i, ls in enumerate(letters_list)}
    classes = {}  # a class named by its sorted letters
    class_arr = np.array(
        [classes.setdefault(tuple(sorted(ls)), len(classes)) for ls in letters_list]
    )
    last = np.array([ls[-1] if ls else 0 for ls in letters_list])
    invtab, majtab = _all_mask_tables(r, letters_list)
    full = (1 << (r * r)) - 1
    bounds = _kappa_bounds_table(r)
    extensible = np.flatnonzero(bounds[:, 0] & bounds[:, 1] == 0).tolist()
    report = Report()
    pair_count = 0
    for u in extensible:
        u_rel = Relation.from_mask(r, u)
        image_idx = np.array([index[psi_letters(u_rel, ls)] for ls in letters_list])
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
        for s in np.flatnonzero(_extends(np.arange(full + 1), bounds[u])).tolist():
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


def _same_reports(a, b):
    """Whether two Reports have the same JSON text, elapsed_ms aside.  A
    helper, so that a failure does not diff two long JSON strings."""
    texts = []
    for report in (a, b):
        data = report.to_json_dict()
        del data["elapsed_ms"]
        texts.append(json.dumps(data))
    return texts[0] == texts[1]


def _walked_cubes(monkeypatch):
    """The masks of the U whose cubes verify_psi walks, from now on."""
    from majinv import mahonian

    walked = []
    walk = mahonian._cube_failures

    def spy(pc, ac, image, r, u, need, free):
        walked.append(u)
        return walk(pc, ac, image, r, u, need, free)

    monkeypatch.setattr(mahonian, "_cube_failures", spy)
    return walked


def test_psi_verifier_matches_the_per_extension_oracle(monkeypatch):
    walked = _walked_cubes(monkeypatch)
    for r in (1, 2, 3):
        for max_len in range(7):
            oracle = _oracle_verify_psi(r, max_len)
            assert _same_reports(verify_psi(r, max_len), oracle), (r, max_len)
    assert walked == []  # the cube check alone settles every U


def test_psi_verifier_lists_a_wrong_psi_as_the_oracle_does(monkeypatch):
    from majinv import mahonian

    psi_images = mahonian._psi_images
    natural = natural_order(3)
    expected = _oracle_verify_psi(3, 5, lambda u, ls: _psi_letters(natural, ls))
    assert len(expected.violations) == 1595

    def natural_images(r, masks, max_len):
        lo = 0
        for chunk, images in psi_images(r, [natural.mask] * len(masks), max_len):
            yield masks[lo : lo + len(chunk)], images
            lo += len(chunk)

    monkeypatch.setattr(mahonian, "_psi_images", natural_images)
    walked = _walked_cubes(monkeypatch)
    assert _same_reports(verify_psi(3, 5), expected)
    # exactly the U that fail are walked, each once
    failing = {
        Relation.from_json_dict(v["u"]).mask
        for v in expected.violations
        if v["property"] == "statistic identity fails"
    }
    assert walked == sorted(failing)
    # a cube check that tests S = need alone misses the failures elsewhere
    holds = mahonian._cube_holds
    monkeypatch.setattr(
        mahonian,
        "_cube_holds",
        lambda pc, ac, idx, u, need, free: holds(pc, ac, idx, u, need, 0 * free),
    )
    report = verify_psi(3, 5)
    assert len(report.violations) == 1147
    assert not _same_reports(report, expected)


def test_psi_verifier_lists_moved_letters_and_lost_bijections_as_the_oracle_does(
    monkeypatch,
):
    # both move the last letter, and sorting every word is no bijection
    from majinv import mahonian

    psi_images = mahonian._psi_images
    mutants = {
        "reversed": (
            lambda u, ls: _psi_letters(u, ls)[::-1],
            lambda images: [img[..., ::-1] for img in images],
        ),
        "sorted": (
            lambda u, ls: tuple(sorted(ls)),
            lambda images: [np.sort(img, axis=-1) for img in images],
        ),
    }
    for name, (scalar, batched) in mutants.items():
        expected = _oracle_verify_psi(3, 4, scalar)
        properties = {v["property"] for v in expected.violations}
        assert "last letter moved" in properties
        assert ("not a class bijection" in properties) == (name == "sorted")
        monkeypatch.setattr(
            mahonian,
            "_psi_images",
            lambda r, masks, max_len: (
                (chunk, batched(images)) for chunk, images in psi_images(r, masks, max_len)
            ),
        )
        assert _same_reports(verify_psi(3, 4), expected), name


def test_psi_verifier_r4():
    start = time.perf_counter()
    report = verify_psi(4, 4)
    assert time.perf_counter() - start < 10
    assert report.ok
    assert report.witnesses["kappa_extensible"] == 2112
    assert report.witnesses["kappa_extension_pairs"] == 180_715
    assert report.checked == 2112 + 180_715


def test_sweep_letter_budget_refuses_before_any_level(monkeypatch):
    # r = 3 is accepted up to weight 9 and r = 1 up to weight 1253; no level
    # runs, since the levels are replaced by a stub
    from majinv import mahonian

    reached = []

    def levels(r, max_weight, masks_of):
        reached.append((r, max_weight))
        return [np.zeros((1, 1), dtype=bool)], {}, {}

    monkeypatch.setattr(mahonian, "_sweep_levels", levels)
    masks_of = SWEEP_MASKS["theorem"]
    for r, accepted in ((3, 9), (1, 1253)):
        mahonian._staged_sweep(r, accepted, masks_of)
        with pytest.raises(ValueError, match="budget"):
            mahonian._staged_sweep(r, accepted + 1, masks_of)
    assert reached == [(3, 9), (1, 1253)]


def test_rawlings_pairs_land_in_classification():
    for r in (2, 3, 4):
        order = natural_order(r)
        for k in range(1, r + 1):
            u, v = u_k(r, k), v_k(r, k)
            assert (u & v) == empty_relation(r)
            assert (u | v) == order
            assert is_kappa_extension(order, u)


def test_set_maj_lands_in_classification_and_kz_identity():
    collections = {
        2: [[3, 9], [2]],
        3: [[5], [1, 2], [7, 8, 9]],
        4: [[3, 9], [2], [1, 4, 8], [7]],
    }
    for r, sets in collections.items():
        stat = set_maj_stat(sets)
        u, v = stat.maj_relation, stat.inv_relation
        s = u | v
        assert (u & v) == empty_relation(r)
        assert is_total_order(s)
        assert is_kappa_extension(s, u)
        assert distribution(stat, Composition((1,) * r)) == q_factorial(r)


def test_report_json_schema():
    report = verify_macmahon(2, 3)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert set(data) == {"checked", "violations", "witnesses", "elapsed_ms"}
    assert data["violations"] == []


def test_all_words_lists_words_of_length():
    from majinv.mahonian import _all_words

    for r in (1, 2, 3, 4):
        for n in range(6):
            expected = [w.letters for w in words_of_length(r, n)]
            words = _all_words(r, n)
            assert words.shape == (r**n, n)
            assert [tuple(row) for row in words.tolist()] == expected, (r, n)
    assert _all_words(1, 2000).tolist() == [[1] * 2000]


def test_class_keys_name_compositions():
    # two words share a class key iff they have the same letter counts
    from majinv.mahonian import _psi_words, _weight_tables

    def same_iff_same_composition(keys, letters):
        # the pairs (key, sorted letters) match keys and sorted letters one
        # to one exactly when each determines the other
        counts = [tuple(sorted(ls)) for ls in letters]
        assert len(keys) == len(counts)
        assert len(set(keys)) == len(set(counts)) == len(set(zip(keys, counts)))

    for r in (1, 2, 3):
        letters = [w.letters for n in range(7) for w in words_of_length(r, n)]
        same_iff_same_composition(_psi_words(r, 6)[0].tolist(), letters)
        for n in range(max(2, r), 7):
            keybase = _weight_tables(r, n)[0].tolist()
            full = [w.letters for w in words_of_length(r, n) if len(set(w.letters)) == r]
            same_iff_same_composition(keybase, full)


def test_cell_rows_times_bits_match_statistic_definitions():
    from majinv import Word, graphical_inv, graphical_maj
    from majinv.mahonian import _bits, _cell_rows

    def check(r, words, masks):
        n = len(words[0])
        letters = np.array([w.letters for w in words], dtype=np.int64)
        pc, ac = _cell_rows(r, letters.reshape(len(words), n))
        bits = _bits(masks, r)
        inv, maj = bits @ pc.T, bits @ ac.T
        for i, mask in enumerate(masks):
            rel = Relation.from_mask(r, mask)
            assert inv[i].tolist() == [graphical_inv(rel, w) for w in words], mask
            assert maj[i].tolist() == [graphical_maj(rel, w) for w in words], mask

    rng = random.Random(3)
    masks = [1 << b for b in range(9)] + [rng.randrange(512) for _ in range(200)]
    for n in range(6):
        check(3, list(words_of_length(3, n)), masks)
    # long words, whose cell counts run into the hundreds of thousands
    for r in (1, 2):
        word = Word(tuple(rng.randrange(1, r + 1) for _ in range(1200)), r)
        check(r, [word], [1 << b for b in range(r * r)] + [(1 << (r * r)) - 1])


def test_theorem_sweep_peak_memory():
    # the sweep holds r*r cells per word; a table of every word's values under
    # all 2**9 masks would take the traced peak to about 30 MB
    import tracemalloc

    tracemalloc.start()
    try:
        assert verify_theorem_majinv(3, 7).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20
