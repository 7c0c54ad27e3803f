import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_gmaps
from majinv import (
    GMap,
    INF,
    MajInvStatistic,
    Relation,
    Word,
    empty_relation,
    full_relation,
    gamma,
    gamma_inverse,
    gmap_stat,
    graphical_inv,
    graphical_maj,
    inv_stat,
    k_maj,
    letter_counts,
    maj_stat,
    natural_order,
    psi,
    psi_inverse,
    ratio_gmap,
    set_maj,
    stat_fg,
    u_k,
    v_k,
    words_of_length,
    x_factorization,
)
from majinv.mahonian import enumerate_relations


def wd(text, size=3):
    return Word.parse(text, size)


GT3 = natural_order(3)


def test_graphical_inv_examples():
    assert graphical_inv(GT3, wd("3 1 2")) == 2
    assert graphical_inv(empty_relation(3), wd("3 1 2")) == 0
    for n in range(5):
        w = Word((1, 2) * n, 4)
        assert graphical_inv(full_relation(4), w) == (2 * n) * (2 * n - 1) // 2
    with pytest.raises(ValueError):
        graphical_inv(natural_order(2), wd("3 1 2"))


def test_graphical_maj_examples():
    assert graphical_maj(GT3, wd("3 1 2")) == 1
    assert graphical_maj(empty_relation(3), wd("3 1 2")) == 0
    w = Word((2, 1, 2, 1), 2)
    assert graphical_maj(full_relation(2), w) == 1 + 2 + 3


def test_evaluate_examples():
    # a pair common to U and V scores twice on the two-letter word
    u = Relation.from_pairs(2, [(1, 2)])
    stat = MajInvStatistic(u, u)
    assert stat.evaluate(Word((1, 2), 2)) == 2
    for w in words_of_length(3, 4):
        assert maj_stat(3).evaluate(w) == graphical_maj(GT3, w)
        assert inv_stat(3).evaluate(w) == graphical_inv(GT3, w)


def test_k_maj_endpoints():
    for r in range(1, 5):
        maj = maj_stat(r)
        inv = inv_stat(r)
        for n in range(6):
            for w in words_of_length(r, n):
                assert k_maj(r, 1, w) == maj.evaluate(w)
                assert k_maj(r, r, w) == inv.evaluate(w)


def test_k_maj_example():
    assert k_maj(3, 2, wd("3 1 2")) == 2
    with pytest.raises(ValueError):
        k_maj(3, 0, wd("3 1 2"))


def test_set_maj_worked_example():
    sets = [[3, 9], [2], [1, 4, 8], [7], [5, 6]]
    assert set_maj(sets, Word.parse("1 2 3 4 5", 5)) == 7
    assert set_maj([[4, 7]], Word.parse("1", 1)) == 0
    assert set_maj([[2], [1]], Word.parse("1 2", 2)) == 1


def test_letter_counts_examples():
    assert letter_counts(GT3, GT3, wd(""), 2) == (0, 0, 0)
    assert letter_counts(GT3, GT3, wd("3 1 2"), 2) == (2, 1, 0)
    assert letter_counts(empty_relation(3), GT3, wd("3 1 2"), 2) == (3, 0, 1)
    with pytest.raises(ValueError):
        letter_counts(GT3, GT3, wd("3 1 2"), 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda w: graphical_inv(GT3, w),
        lambda w: graphical_maj(GT3, w),
        lambda w: stat_fg(ratio_gmap(3, 1), w),
        lambda w: letter_counts(GT3, GT3, w, 1),
        lambda w: x_factorization(GT3, w, 1),
        lambda w: gamma(GT3, 1, w),
        lambda w: gamma_inverse(GT3, 1, w),
        lambda w: psi(GT3, w),
        lambda w: psi_inverse(GT3, w),
    ],
    ids=[
        "graphical_inv",
        "graphical_maj",
        "stat_fg",
        "letter_counts",
        "x_factorization",
        "gamma",
        "gamma_inverse",
        "psi",
        "psi_inverse",
    ],
)
def test_word_over_a_larger_alphabet_is_refused(call):
    call(wd("3 1 2", 4))  # letters inside [3] pass whatever the word's alphabet
    with pytest.raises(ValueError, match=r"word letters exceed alphabet \[3\]"):
        call(wd("1 4 2", 4))


def _outcome(call):
    """What a call gives, with Words reduced to their letters, or the message
    of the ValueError it raises; any other exception escapes."""
    try:
        value = call()
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(value, Word):
        return "ok", value.letters
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], list):
        case, parts = value  # x_factorization
        return "ok", (case, [(b.letters, p) for b, p in parts])
    return "ok", value


def test_alphabet_check_matches_the_max_rule_exhaustively():
    # Words over [r], [r + 1] and [r + 2], given to maps over [r].  The max()
    # rule the shortcut replaced is the oracle: a word whose largest letter
    # passes r is refused with the same message, and any other word gives
    # what the same letters written over [r] give.
    for r in (1, 2, 3):
        u = natural_order(r)
        stat = MajInvStatistic(u, u.transpose())
        calls = [
            lambda w: psi(u, w),
            lambda w: psi_inverse(u, w),
            lambda w: stat.evaluate(w),
        ]
        for x in range(1, r + 2):  # x = r + 1 is refused on its own
            calls += [
                lambda w, x=x: gamma(u, x, w),
                lambda w, x=x: gamma_inverse(u, x, w),
                lambda w, x=x: x_factorization(u, w, x),
            ]
        for size in (r, r + 1, r + 2):
            for n in range(5):
                for w in words_of_length(size, n):
                    refused = bool(w.letters) and max(w.letters) > r
                    for call in calls:
                        got = _outcome(lambda: call(w))
                        if refused:
                            assert got == ("error", f"word letters exceed alphabet [{r}]")
                        else:
                            assert got == _outcome(lambda: call(Word(w.letters, r)))


def test_letter_counts_partition_property():
    rng = random.Random(7)
    rels = list(enumerate_relations(2))
    for _ in range(200):
        u = rng.choice(rels)
        s = rng.choice(rels)
        w = Word(tuple(rng.choices((1, 2), k=rng.randrange(6))), 2)
        x = rng.choice((1, 2))
        l, r, t = letter_counts(u, s, w, x)
        assert l + r == len(w)
        assert t <= l


def test_stat_fg_examples():
    succ = GMap((1, 2, 3), (2, 3, INF))
    nothing = GMap((1, 2, 3), (INF, INF, INF))
    for n in range(6):
        for w in words_of_length(3, n):
            assert stat_fg(succ, w) == maj_stat(3).evaluate(w)
            assert stat_fg(nothing, w) == inv_stat(3).evaluate(w)
    assert stat_fg(nothing, wd("3 1 2")) == 2
    # same statistic through the ratio builder and through the relation pair
    m = ratio_gmap(3, 2)
    pair = MajInvStatistic(u_k(3, 2), v_k(3, 2))
    for w in words_of_length(3, 4):
        assert stat_fg(m, w) == pair.evaluate(w)


def test_marked_successor_extremes():
    from majinv import marked_successor_gmap

    # no marked letters: the descent part vanishes and plain inv remains
    nothing = gmap_stat(marked_successor_gmap(4, []))
    assert nothing.maj_relation == empty_relation(4)
    assert nothing.inv_relation == natural_order(4)
    # all letters marked: the successor map is the classical maj g-map
    everything = gmap_stat(marked_successor_gmap(4, [1, 2, 3, 4]))
    assert everything.maj_relation == natural_order(4)
    assert everything.inv_relation == empty_relation(4)


def test_stat_fg_matches_relation_pair_everywhere():
    for r in (1, 2, 3):
        for m in all_gmaps(r):
            stat = gmap_stat(m)
            for n in range(5):
                for w in words_of_length(r, n):
                    assert stat_fg(m, w) == stat.evaluate(w)


def test_disjoint_union_additivity():
    for a_mask in range(16):
        for b_mask in range(16):
            if a_mask & b_mask:
                continue
            a = Relation.from_mask(2, a_mask)
            b = Relation.from_mask(2, b_mask)
            for n in range(5):
                for w in words_of_length(2, n):
                    assert graphical_inv(a, w) + graphical_inv(b, w) == graphical_inv(
                        a | b, w
                    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=1 << 16),
    st.lists(st.integers(min_value=1, max_value=4), max_size=8),
)
def test_disjoint_union_additivity_random(r, am, bm, letters):
    a = Relation.from_mask(r, am % (1 << (r * r)))
    b = Relation.from_mask(r, bm % (1 << (r * r)))
    b = b - a
    w = Word(tuple(x if x <= r else r for x in letters), r)
    assert graphical_inv(a, w) + graphical_inv(b, w) == graphical_inv(a | b, w)


def test_length_two_words_maj_equals_inv():
    for r in (1, 2, 3):
        for u in enumerate_relations(r):
            for w in words_of_length(r, 2):
                assert graphical_maj(u, w) == graphical_inv(u, w)


def test_append_identity_small(kappa_extension_pairs):
    # inv'_S(wx) = inv'_S(w) + r_x(w) + t_x(w) whenever S kappa-extends U
    for r in (1, 2):
        for u, s in kappa_extension_pairs(r):
            for n in range(5):
                for w in words_of_length(r, n):
                    inv_w = graphical_inv(s, w)
                    for x in range(1, r + 1):
                        _, rc, tc = letter_counts(u, s, w, x)
                        wx = Word(w.letters + (x,), r)
                        assert graphical_inv(s, wx) == inv_w + rc + tc


def test_append_identity_r3(kappa_extension_pairs):
    pairs = kappa_extension_pairs(3)
    words = [w for n in range(5) for w in words_of_length(3, n)]
    for u, s in pairs:
        for w in words:
            inv_w = graphical_inv(s, w)
            for x in (1, 2, 3):
                _, rc, tc = letter_counts(u, s, w, x)
                wx = Word(w.letters + (x,), 3)
                assert graphical_inv(s, wx) == inv_w + rc + tc


def test_append_identity_r3_longer_words_sampled(kappa_extension_pairs):
    rng = random.Random(11)
    pairs = kappa_extension_pairs(3)
    for _ in range(300):
        u, s = rng.choice(pairs)
        w = Word(tuple(rng.choices((1, 2, 3), k=5)), 3)
        x = rng.choice((1, 2, 3))
        _, rc, tc = letter_counts(u, s, w, x)
        wx = Word(w.letters + (x,), 3)
        assert graphical_inv(s, wx) == graphical_inv(s, w) + rc + tc
