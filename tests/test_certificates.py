"""The class certificates compare one support at a time; these tests hold
them to class-by-class oracles: the verdict of is_mahonian_up_to, the
expected tuples of the product and subset formulas, and the Reports of
macmahon, product-formula and applications, with the distribution engine
both correct and deliberately broken."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from majinv import mahonian, qseries
from majinv.mahonian import (
    _product_formulas,
    _restricted_bipartition,
    _restricted_letters,
    _subset_formulas,
    enumerate_relations,
    verify_applications,
    verify_macmahon,
    verify_product_formula,
)
from majinv.qseries import (
    QPolynomial,
    bipartitional_product_formula,
    distribution,
    is_mahonian_up_to,
    q_factorial,
    q_multinomial,
)
from majinv.relations import (
    Relation,
    extract_bipartition,
    is_bipartitional,
    is_kappa_extensible,
    kappa_closure,
)
from majinv.statistics import (
    MajInvStatistic,
    gmap_stat,
    inv_stat,
    k_maj_stat,
    maj_stat,
    marked_successor_gmap,
    ratio_gmap,
    subset_stat,
    subset_stat_total,
)
from majinv.words import Composition, class_size, compositions_up_to

SUBSETS = [
    frozenset(c) for size in range(5) for c in itertools.combinations(range(1, 5), size)
]


def _clear_engine_memos():
    # every memo that holds a walked polynomial or a verdict read from one
    qseries._clear_memos()


def _mahonian_by_class(stat, max_weight):
    return all(
        distribution(stat, c) == q_multinomial(c)
        for c in compositions_up_to(stat.size, max_weight)
    )


def test_is_mahonian_up_to_matches_the_per_class_verdict_exhaustively_small():
    # weights ascending, so a verdict memo that ignored max_weight would
    # hand a pair its verdict from a smaller weight
    _clear_engine_memos()
    for r in (1, 2):
        rels = list(enumerate_relations(r))
        for max_weight in range(1, 6):
            verdicts = []
            for u, v in itertools.product(rels, rels):
                stat = MajInvStatistic(u, v)
                got = is_mahonian_up_to(stat, max_weight)
                assert got == _mahonian_by_class(stat, max_weight), (u, v, max_weight)
                verdicts.append(got)
            if r == 2 and max_weight >= 2:
                assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_is_mahonian_up_to_matches_the_per_class_verdict_sampled_r3():
    rng = random.Random(2008)
    pairs = [(rng.randrange(512), rng.randrange(512)) for _ in range(150)]
    # the mahonian pairs are rare among random ones; add some
    pairs += [
        (stat.maj_relation.mask, stat.inv_relation.mask)
        for stat in (inv_stat(3), maj_stat(3), k_maj_stat(3, 2))
    ]
    _clear_engine_memos()
    for max_weight in (2, 3, 4, 5):
        for u, v in pairs:
            stat = MajInvStatistic(Relation.from_mask(3, u), Relation.from_mask(3, v))
            assert is_mahonian_up_to(stat, max_weight) == _mahonian_by_class(
                stat, max_weight
            ), (u, v, max_weight)


def test_is_mahonian_up_to_stops_at_the_first_failing_support():
    # U = {(1,1), (2,2)} scores binomial(n, 2) on a class of n equal letters,
    # so the first support, a single letter, fails, and no other is walked
    stat = MajInvStatistic(
        Relation.from_pairs(2, [(1, 1), (2, 2)]), Relation.from_pairs(2, [])
    )
    assert len(qseries.supports(2, 4)[0]) == 1
    _clear_engine_memos()
    assert not is_mahonian_up_to(stat, 4)
    assert qseries._form_distributions.cache_info().currsize == 1


def _support_classes(r, max_weight):
    # (support, its classes placed on [r]) per support, in supports' order
    return [
        (
            support,
            [
                qseries._placed(r, support, counts)
                for counts in qseries.full_support_counts(len(support), max_weight)
            ],
        )
        for support in qseries.supports(r, max_weight)
    ]


def _grouped_by_support(r, max_weight):
    # the grouping the certificates once made: the classes of
    # compositions_up_to with a non-empty support, grouped by it
    groups = {}
    for c in compositions_up_to(r, max_weight):
        if c.weight:
            support = tuple(x for x in range(r) if c.counts[x])
            groups.setdefault(support, []).append(c)
    return groups


def test_supports_and_placed_counts_give_the_classes_of_each_support_in_order():
    for r in range(1, 5):
        for max_weight in range(7):
            got = _support_classes(r, max_weight)
            assert [len(support) for support, _ in got] == sorted(
                len(support) for support, _ in got
            )
            assert dict(got) == _grouped_by_support(r, max_weight), (r, max_weight)
            assert len(got) == len(dict(got))  # each support once
            placed = [c for _, classes in got for c in classes]
            by_class_order = sorted(placed, key=lambda c: (c.weight, c.counts))
            assert by_class_order == list(compositions_up_to(r, max_weight))[1:]


def test_a_certificate_builds_no_class_beyond_full_support_counts(monkeypatch):
    # the classes of compositions_up_to(64, 2) number 2,145; a certificate
    # builds only the full-support classes over one and two letters
    stat = inv_stat(64)
    expected = sum(len(compositions_up_to(k, 2)) for k in (1, 2))
    built = []
    post_init = Composition.__post_init__

    def counted(c):
        built.append(c)
        post_init(c)

    _clear_engine_memos()
    monkeypatch.setattr(Composition, "__post_init__", counted)
    assert is_mahonian_up_to(stat, 2)
    assert len(built) == expected == 9


def _bipartitions(r):
    return [extract_bipartition(u) for u in enumerate_relations(r) if is_bipartitional(u)]


def test_product_formulas_on_a_support_match_the_formula_class_by_class():
    # the restricted bipartition's tuple holds, class by class, the formula
    # of the whole bipartition on the classes with that support
    for r, max_weight in ((1, 6), (2, 6), (3, 5)):
        bips = _bipartitions(r)
        assert any(1 in b.betas for b in bips) and any(0 in b.betas for b in bips)
        for b in bips:
            for support, classes in _support_classes(r, max_weight):
                got = _product_formulas(_restricted_bipartition(b, support), max_weight)
                assert got == tuple(
                    bipartitional_product_formula(c, b) for c in classes
                ), (b, support)


def test_restricted_bipartition_keeps_each_blocks_beta():
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    b = extract_bipartition(Relation.from_pairs(3, pairs))
    assert (b.blocks, b.betas) == (((3,), (1, 2)), (0, 1))
    cut = _restricted_bipartition(b, (1, 2))
    assert (cut.blocks, cut.betas) == (((2,), (1,)), (0, 1))
    cut = _restricted_bipartition(b, (0, 1))
    assert (cut.blocks, cut.betas) == (((1, 2),), (1,))


def _subset_formula(a, c):
    # the closed distribution of subset_stat(r, a, b) on the class c, as the
    # applications suite states it
    parts = tuple(c.counts[x - 1] for x in sorted(a, reverse=True))
    rest = tuple(c.counts[x - 1] for x in range(1, c.size + 1) if x not in a)
    coeff = class_size(Composition(rest)) if rest else 1
    return coeff * q_multinomial(Composition(parts + (sum(rest),)))


def test_subset_formulas_on_a_support_match_the_formula_class_by_class():
    for max_weight in (2, 4, 5):
        for a in SUBSETS:
            for support, classes in _support_classes(4, max_weight):
                got = _subset_formulas(
                    len(support), _restricted_letters(a, support), max_weight
                )
                assert got == tuple(_subset_formula(a, c) for c in classes)


# ---------------------------------------------------------------------------
# The Reports, against class-by-class oracles


def _report(verify, *args):
    report = verify(*args).to_json_dict()
    del report["elapsed_ms"]
    return report


def _oracle_macmahon(r, max_weight):
    inv, maj = inv_stat(r), maj_stat(r)
    comps = compositions_up_to(r, max_weight)
    violations = []
    for c in comps:
        d_inv, d_maj, qm = distribution(inv, c), distribution(maj, c), q_multinomial(c)
        if not (d_inv == d_maj == qm):
            violations.append(
                {
                    "composition": c.text(),
                    "inv": d_inv.to_json_dict(),
                    "maj": d_maj.to_json_dict(),
                    "q_multinomial": qm.to_json_dict(),
                }
            )
    return {
        "checked": len(comps),
        "violations": violations,
        "witnesses": {"max_weight": max_weight},
    }


def _oracle_product_formula(r, max_weight):
    comps = compositions_up_to(r, max_weight)
    checked, extensible, violations = 0, 0, []
    for u in enumerate_relations(r):
        if not is_kappa_extensible(u):
            continue
        extensible += 1
        closure = kappa_closure(u)
        bip = extract_bipartition(closure)
        stat = MajInvStatistic(u, closure - u)
        for c in comps:
            checked += 1
            lhs, rhs = distribution(stat, c), bipartitional_product_formula(c, bip)
            if lhs != rhs:
                violations.append(
                    {
                        "u": u.to_json_dict(),
                        "composition": c.text(),
                        "distribution": lhs.to_json_dict(),
                        "product_formula": rhs.to_json_dict(),
                    }
                )
    return {
        "checked": checked,
        "violations": violations,
        "witnesses": {"kappa_extensible": extensible, "max_weight": max_weight},
    }


def _oracle_applications(max_weight):
    # the engine-dependent checks of verify_applications, class by class;
    # the two ratio sweeps evaluate words directly and are taken as passing
    checks = []  # (holds, violation) in the suite's order
    for k in (1, Fraction(3, 2), 2, 4):
        stat = gmap_stat(ratio_gmap(4, k))
        checks.append((_mahonian_by_class(stat, max_weight), {"family": "ratio", "k": str(k)}))
    checks += [(True, None), (True, None)]
    for marked in SUBSETS:
        stat = gmap_stat(marked_successor_gmap(4, marked))
        checks.append(
            (
                _mahonian_by_class(stat, max_weight),
                {"family": "marked-successor", "marked": sorted(marked)},
            )
        )
    for a, b in itertools.product(SUBSETS, SUBSETS):
        checks.append(
            (
                _mahonian_by_class(subset_stat_total(4, a, b), max_weight),
                {"family": "subset-total", "a": sorted(a), "b": sorted(b)},
            )
        )
    for a, b in itertools.product(SUBSETS, SUBSETS):
        stat = subset_stat(4, a, b)
        for c in compositions_up_to(4, max_weight):
            checks.append(
                (
                    distribution(stat, c) == _subset_formula(a, c),
                    {
                        "family": "subset-distribution",
                        "a": sorted(a),
                        "b": sorted(b),
                        "composition": c.text(),
                    },
                )
            )
    for size in (3, 4):
        evens = [x for x in range(1, size + 1) if x % 2 == 0]
        odds = [x for x in range(1, size + 1) if x % 2 == 1]
        half = (size + 1) // 2
        expected = math.factorial(half) * q_factorial(size).exact_div(q_factorial(half))
        got = distribution(subset_stat(size, evens, odds), Composition((1,) * size))
        checks.append((got == expected, {"family": "parity-permutations", "r": size}))
    return {
        "checked": len(checks),
        "violations": [v for holds, v in checks if not holds],
        "witnesses": {"alphabet": 4, "max_weight": max_weight},
    }


def test_reports_match_the_class_by_class_oracles():
    # the bench sizes, and r = 1..3 x W = 2..6
    cases = [((4, 6), verify_macmahon, _oracle_macmahon)]
    cases += [
        ((r, w), verify, oracle)
        for r in (1, 2, 3)
        for w in range(2, 7)
        for verify, oracle in (
            (verify_macmahon, _oracle_macmahon),
            (verify_product_formula, _oracle_product_formula),
        )
    ]
    cases += [((w,), verify_applications, _oracle_applications) for w in (2, 3, 4)]
    for args, verify, oracle in cases:
        assert _report(verify, *args) == oracle(*args), (verify.__name__, args)


def _broken_walk(walk):
    """The walk, except that on the classes with counts (1, 2) of a
    statistic whose restricted U is not empty it adds 1 to the constant
    term: a fault that fails some supports and keeps others."""

    def broken(u_rows, v_rows, counts):
        poly = walk(u_rows, v_rows, counts)
        return poly + QPolynomial.one() if counts == (1, 2) and any(u_rows) else poly

    return broken


@pytest.fixture
def broken_engine(monkeypatch):
    _clear_engine_memos()
    monkeypatch.setattr(qseries, "_walk", _broken_walk(qseries._walk))
    yield
    monkeypatch.undo()
    _clear_engine_memos()


def test_reports_under_a_broken_engine_list_the_oracles_violations_in_order(
    broken_engine,
):
    for args, verify, oracle in (
        ((3, 4), verify_macmahon, _oracle_macmahon),
        ((3, 4), verify_product_formula, _oracle_product_formula),
        ((4,), verify_applications, _oracle_applications),
    ):
        expected = oracle(*args)
        assert expected["violations"], verify.__name__  # the fault shows
        assert _report(verify, *args) == expected, verify.__name__
    # with A = {2}, B = {} passes and B = {1} fails on the classes (1, 2, 0,
    # 0), so a verdict keyed on the restriction of A alone would show
    found = {
        (tuple(v["a"]), tuple(v["b"]))
        for v in expected["violations"]
        if v["family"] == "subset-distribution"
    }
    assert ((2,), (1,)) in found and ((2,), ()) not in found


def test_product_formula_runs_at_r4_and_refuses_a_weight_past_its_budget():
    report = verify_product_formula(4, 5)
    assert report.ok and report.checked == 266_112
    assert report.witnesses == {"kappa_extensible": 2112, "max_weight": 5}
    for r, max_weight in ((4, 6), (3, 9), (2, 17), (1, 423), (4, 10**9)):
        with pytest.raises(ValueError, match="budget"):
            verify_product_formula(r, max_weight)
    with pytest.raises(ValueError, match="past the budget of 1,048,576 relations"):
        verify_product_formula(5, 2)
    assert mahonian.PRODUCT_FORMULA_BUDGET < sum(
        mahonian._suite_steps(4, 6, 2112)
    )


def test_applications_are_refused_past_weight_7_before_any_certificate():
    # 532 certificates over [4]: 4 ratio, 16 marked-successor, and 256 each
    # of subset-total and subset-distribution
    steps = {w: sum(mahonian._suite_steps(4, w, 532)) for w in (7, 8)}
    assert steps[7] <= mahonian.APPLICATIONS_BUDGET < steps[8]
    _clear_engine_memos()
    for max_weight in (8, 9):
        with pytest.raises(ValueError, match="to check the applications"):
            verify_applications(max_weight)
    assert qseries._mahonian_verdict.cache_info().currsize == 0
    # past a single certificate's budget, that refusal comes first, as before
    with pytest.raises(ValueError, match="a certificate up to weight 10 over"):
        verify_applications(10)
