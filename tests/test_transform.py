import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majinv import (
    MajInvStatistic,
    Relation,
    Word,
    composition_of,
    empty_relation,
    gamma,
    gamma_inverse,
    graphical_inv,
    inv_stat,
    letter_counts,
    maj_stat,
    natural_order,
    psi,
    psi_inverse,
    words_of_length,
    x_factorization,
)
from majinv import mahonian, transform
from majinv.mahonian import enumerate_relations
from majinv.transform import MEMO_LETTERS, _clear_memos, _memos

GT3 = natural_order(3)


def wd(text, size=3):
    return Word.parse(text, size)


def test_x_factorization_examples():
    case, parts = x_factorization(GT3, wd("3 1"), 2)
    assert case == "ii"
    assert [(b.letters, p) for b, p in parts] == [((3,), 1)]

    case, parts = x_factorization(GT3, wd("2 3"), 1)
    assert case == "i"
    assert [(b.letters, p) for b, p in parts] == [((), 2), ((), 3)]

    # with the empty relation nothing is related to x: every letter pivots
    case, parts = x_factorization(empty_relation(3), wd("1 3 2"), 2)
    assert case == "ii"
    assert [(b.letters, p) for b, p in parts] == [((), 1), ((), 3), ((), 2)]

    with pytest.raises(ValueError):
        x_factorization(GT3, wd(""), 2)


def test_x_factorization_reassembles():
    rng = random.Random(3)
    for u in enumerate_relations(2):
        for n in range(1, 6):
            for w in words_of_length(2, n):
                for x in (1, 2):
                    case, parts = x_factorization(u, w, x)
                    rebuilt = []
                    related = {y for y in (1, 2) if u.contains(y, x)}
                    for block, pivot in parts:
                        rebuilt.extend(block.letters)
                        rebuilt.append(pivot)
                        inside = set(block.letters)
                        if case == "i":
                            assert pivot in related and not (inside & related)
                        else:
                            assert pivot not in related and inside <= related
                    assert tuple(rebuilt) == w.letters


def test_gamma_examples():
    assert gamma(GT3, 2, wd("")).letters == ()
    assert gamma(GT3, 2, wd("3 1")).letters == (1, 3)
    assert gamma(GT3, 1, wd("2 3")).letters == (2, 3)


def test_gamma_inverse_examples():
    assert gamma_inverse(GT3, 2, wd("")).letters == ()
    assert gamma_inverse(GT3, 2, wd("1 3")).letters == (3, 1)


def test_gamma_round_trip_exhaustive():
    for r in (1, 2, 3):
        words = [w for n in range(6) for w in words_of_length(r, n)]
        for u in enumerate_relations(r):
            for x in range(1, r + 1):
                for w in words:
                    img = gamma(u, x, w)
                    assert composition_of(img) == composition_of(w)
                    assert gamma_inverse(u, x, img) == w


def test_psi_examples():
    assert psi(GT3, wd("")).letters == ()
    for x in (1, 2, 3):
        assert psi(GT3, Word((x,), 3)).letters == (x,)
    assert psi(GT3, wd("3 1 2")).letters == (1, 3, 2)
    assert psi_inverse(GT3, wd("1 3 2")).letters == (3, 1, 2)
    # the empty relation factors every word trivially, so psi fixes it
    assert psi(empty_relation(3), wd("2 1")).letters == (2, 1)


def test_psi_round_trip_exhaustive():
    # every relation on r <= 3, every word of length <= 6: class and last
    # letter preserved, and the two maps invert each other
    for r in (1, 2, 3):
        words = [w for n in range(7) for w in words_of_length(r, n)]
        for u in enumerate_relations(r):
            for w in words:
                img = psi(u, w)
                assert composition_of(img) == composition_of(w)
                if len(w):
                    assert img.letters[-1] == w.letters[-1]
                assert psi_inverse(u, img) == w
                assert psi(u, psi_inverse(u, w)) == w


def test_psi_bijective_on_classes_r3_length6():
    words = [w.letters for w in words_of_length(3, 6)]
    for u in enumerate_relations(3):
        images = {psi(u, Word(ls, 3)).letters for ls in words}
        assert len(images) == len(words)


def test_foata_specialization_sends_maj_to_inv():
    for r in (2, 3):
        order = natural_order(r)
        maj = maj_stat(r)
        inv = inv_stat(r)
        for n in range(7):
            for w in words_of_length(r, n):
                assert inv.evaluate(psi(order, w)) == maj.evaluate(w)


def test_statistic_identity_small(kappa_extension_pairs):
    for r in (1, 2):
        for u, s in kappa_extension_pairs(r):
            stat = MajInvStatistic(u, s - u)
            for n in range(6):
                for w in words_of_length(r, n):
                    assert graphical_inv(s, psi(u, w)) == stat.evaluate(w)


def test_statistic_identity_r3_sampled(kappa_extension_pairs):
    rng = random.Random(23)
    pairs = kappa_extension_pairs(3)
    for u, s in rng.sample(pairs, 120):
        stat = MajInvStatistic(u, s - u)
        for _ in range(40):
            w = Word(tuple(rng.choices((1, 2, 3), k=rng.randrange(7))), 3)
            assert graphical_inv(s, psi(u, w)) == stat.evaluate(w)


def test_gamma_statistic_identities(kappa_extension_pairs):
    # the five local identities driving the statistic transfer, checked per
    # appended letter for kappa-extension pairs
    def check(u, s, w, x, r):
        wx = Word(w.letters + (x,), r)
        lc, rc, tc = letter_counts(u, s, w, x)
        assert graphical_inv(s, wx) == graphical_inv(s, w) + rc + tc
        img = gamma(u, x, w)
        stat = MajInvStatistic(u, s - u)
        if len(w):
            if u.contains(w.letters[-1], x):
                assert graphical_inv(s, img) == graphical_inv(s, w) + lc
                assert stat.evaluate(wx) == stat.evaluate(w) + tc + len(w)
            else:
                assert graphical_inv(s, img) == graphical_inv(s, w) - rc
                assert stat.evaluate(wx) == stat.evaluate(w) + tc

    for r in (1, 2):
        for u, s in kappa_extension_pairs(r):
            for n in range(6):
                for w in words_of_length(r, n):
                    for x in range(1, r + 1):
                        check(u, s, w, x, r)

    pairs = kappa_extension_pairs(3)
    words3 = [w for n in range(4) for w in words_of_length(3, n)]
    for u, s in pairs:
        for w in words3:
            for x in (1, 2, 3):
                check(u, s, w, x, 3)
    rng = random.Random(5)
    for u, s in rng.sample(pairs, 200):
        for _ in range(25):
            w = Word(tuple(rng.choices((1, 2, 3), k=rng.choice((4, 5)))), 3)
            check(u, s, w, rng.choice((1, 2, 3)), 3)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.lists(st.integers(min_value=1, max_value=4), max_size=9),
)
def test_psi_round_trip_random(r, mask, letters):
    u = Relation.from_mask(r, mask % (1 << (r * r)))
    w = Word(tuple(x if x <= r else r for x in letters), r)
    assert psi_inverse(u, psi(u, w)) == w
    assert psi(u, psi_inverse(u, w)) == w


# --- the table-driven kernel against an oracle written from the definition ---
#
# Only u.contains and the factorization in the module docstring are used:
# against x, a letter y is related when y U x; the pivots are the letters on
# the same side as the last letter, and each block is the run of other
# letters just before its pivot.  ``side[y]`` is [y U x], read once per x;
# the oracles see only ``side``, so their results are memoized on it.


def _sides(u, x):
    return (None,) + tuple(u.contains(y, x) for y in range(1, u.size + 1))


@functools.cache
def _oracle_parts(side, letters):
    """(block, pivot) parts of the x-factorization of a non-empty word."""
    pivot_side = side[letters[-1]]
    parts, block = [], []
    for y in letters:
        if side[y] == pivot_side:
            parts.append((tuple(block), y))
            block = []
        else:
            block.append(y)
    assert not block
    return tuple(parts)


@functools.cache
def _oracle_gamma(side, letters):
    if not letters:
        return ()
    parts = _oracle_parts(side, letters)
    return tuple(z for block, pivot in parts for z in (pivot,) + block)


@functools.cache
def _oracle_gamma_inverse(side, letters):
    """Cut the image before every letter on the side of its first letter (the
    pivots) and move each pivot behind the rest of its segment."""
    if not letters:
        return ()
    segments = []
    for y in letters:
        if side[y] == side[letters[0]]:
            segments.append([y])
        else:
            segments[-1].append(y)
    return tuple(z for seg in segments for z in seg[1:] + seg[:1])


def _all_sides(u):
    return [None] + [_sides(u, x) for x in range(1, u.size + 1)]


def _oracle_psi(sides, letters):
    img = ()
    for x in letters:
        img = _oracle_gamma(sides[x], img) + (x,)
    return img


def _oracle_psi_inverse(sides, letters):
    """Peel the last letter and undo one gamma, until nothing is left."""
    out = []
    while letters:
        x = letters[-1]
        out.append(x)
        letters = _oracle_gamma_inverse(sides[x], letters[:-1])
    return tuple(reversed(out))


def _check_kernel_against_oracle(u, words, factorization=True):
    # words come in length order, so every prefix's oracle image is ready
    _clear_memos()
    sides = _all_sides(u)
    oracle_psi = {(): ()}
    for w in words:
        ls = w.letters
        if ls:
            x = ls[-1]
            oracle_psi[ls] = _oracle_gamma(sides[x], oracle_psi[ls[:-1]]) + (x,)
        assert psi(u, w).letters == oracle_psi[ls]
        assert psi_inverse(u, w).letters == _oracle_psi_inverse(sides, ls)
        for x in range(1, u.size + 1):
            side = sides[x]
            img = gamma(u, x, w)
            assert img == Word(_oracle_gamma(side, ls), u.size)
            assert hash(img) == hash(Word(img.letters, u.size))
            assert gamma_inverse(u, x, w).letters == _oracle_gamma_inverse(side, ls)
            if ls and factorization:
                case, parts = x_factorization(u, w, x)
                assert case == ("i" if side[ls[-1]] else "ii")
                got = tuple((b.letters, p) for b, p in parts)
                assert got == _oracle_parts(side, ls)


def test_kernel_matches_definition_oracle_r2():
    for r in (1, 2):
        words = [w for n in range(7) for w in words_of_length(r, n)]
        for u in enumerate_relations(r):
            _check_kernel_against_oracle(u, words)


def test_kernel_matches_definition_oracle_r3():
    # x_factorization shares the table with gamma; it is compared at r <= 2
    words = [w for n in range(6) for w in words_of_length(3, n)]
    for u in enumerate_relations(3):
        _check_kernel_against_oracle(u, words, factorization=False)


def test_psi_round_trip_on_256_letters():
    rng = random.Random(256)
    r = 256
    u = Relation(r, tuple(rng.getrandbits(r) for _ in range(r)))
    w = Word(tuple(rng.randint(1, r) for _ in range(200)), r)
    img = psi(u, w)
    assert composition_of(img) == composition_of(w)
    assert psi_inverse(u, img) == w
    assert psi(u, psi_inverse(u, w)) == w
    order = natural_order(r)
    assert psi_inverse(order, psi(order, w)) == w
    # fresh memos: the whole chain runs, and must not recurse per letter
    _clear_memos()
    order2 = natural_order(2)
    long = Word(tuple(rng.randint(1, 2) for _ in range(3000)), 2)
    img = psi(order2, long)
    _clear_memos()
    assert psi_inverse(order2, img) == long


def _count_table_builds(monkeypatch):
    build = transform._pivot_classes
    builds = []

    def counted(u):
        builds.append(u)
        return build(u)

    monkeypatch.setattr(transform, "_pivot_classes", counted)
    return build, builds


def test_equal_relations_share_one_pivot_class_entry(monkeypatch):
    a = Relation.from_pairs(3, [(3, 1), (2, 1)])
    b = Relation.from_mask(3, a.mask)
    c = Relation.from_pairs(3, [(3, 1)])
    assert a == b and a is not b and hash(a) == hash(b) and a != c
    build, builds = _count_table_builds(monkeypatch)
    _clear_memos()
    held = _memos(a)
    assert builds == [a] and held[1] == build(a)
    # an equal but distinct relation reuses the held table and memos
    assert _memos(b) is held and builds == [a]
    w = Word((1, 3, 2), 3)
    assert psi_inverse(b, psi(b, w)) == w and _memos(a) is held and builds == [a]
    # a different relation rebuilds the table once
    swapped = _memos(c)
    assert swapped is not held and swapped[0] is c and swapped[1] == build(c)
    assert _memos(c) is swapped and builds == [a, c]


def test_pivot_class_cache_stays_bounded(monkeypatch):
    # one table is held at a time: each swap to another relation builds one
    # and drops the last, and a run of equal relations builds none
    build, builds = _count_table_builds(monkeypatch)
    _clear_memos()
    w = Word((1, 2, 1), 2)
    relations = [Relation.from_mask(2, mask) for mask in range(16)]
    for k, u in enumerate(relations + relations):
        assert psi_inverse(u, psi(u, w)) == w
        assert psi_inverse(Relation.from_mask(2, u.mask), psi(u, w)) == w
        held = transform._held
        assert held[0] is u and held[1] == build(u)
        assert len(builds) == k + 1 and builds[-1] is u


def test_gamma_never_builds_the_pivot_class_table(monkeypatch):
    # the public rewrites read one column each, never the whole table
    def no_table(u):
        raise AssertionError("the full pivot-class table was built")

    monkeypatch.setattr(transform, "_pivot_classes", no_table)
    rng = random.Random(256)
    r = 256
    u = Relation(r, tuple(rng.getrandbits(r) for _ in range(r)))
    w = Word(tuple(rng.randint(1, r) for _ in range(60)), r)
    for x in (1, 2, 129, r):
        side = _sides(u, x)
        assert gamma(u, x, w).letters == _oracle_gamma(side, w.letters)
        assert gamma_inverse(u, x, w).letters == _oracle_gamma_inverse(side, w.letters)
        case, parts = x_factorization(u, w, x)
        assert case == ("i" if side[w.letters[-1]] else "ii")
        assert tuple((b.letters, p) for b, p in parts) == _oracle_parts(side, w.letters)


# --- the psi memo: hits, misses, evictions and its letter budget ---


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(transform, name)

    def counted(cls, letters):
        calls.append(None)
        return inner(cls, letters)

    monkeypatch.setattr(transform, name, counted)
    return calls


def test_memo_orders_agree_with_oracle(monkeypatch):
    gammas = _count_calls(monkeypatch, "_gamma_letters")
    peels = _count_calls(monkeypatch, "_gamma_inverse_letters")
    for r in (1, 2):
        words = [w for n in range(7) for w in words_of_length(r, n)]
        nonempty = sum(1 for w in words if w.letters)
        letters = sum(len(w) for w in words)
        rels = list(enumerate_relations(r))
        for u in rels:
            sides = _all_sides(u)
            # length order: each call is one step on its stored prefix
            _clear_memos()
            gammas.clear()
            peels.clear()
            for w in words:
                assert psi(u, w).letters == _oracle_psi(sides, w.letters)
                assert psi_inverse(u, w).letters == _oracle_psi_inverse(sides, w.letters)
            assert len(gammas) == len(peels) == nonempty
            # reverse order: no prefix is stored, and none gets stored
            _clear_memos()
            gammas.clear()
            peels.clear()
            for w in reversed(words):
                assert psi(u, w).letters == _oracle_psi(sides, w.letters)
                assert psi_inverse(u, w).letters == _oracle_psi_inverse(sides, w.letters)
            assert len(gammas) == len(peels) == letters
        # two relations in turn: every call evicts the other's memos
        for u, v in zip(rels, rels[1:] + rels[:1]):
            pair = [(rel, _all_sides(rel)) for rel in (u, v)]
            gammas.clear()
            peels.clear()
            for w in words:
                for rel, sides in pair:
                    assert psi(rel, w).letters == _oracle_psi(sides, w.letters)
                for rel, sides in pair:
                    back = _oracle_psi_inverse(sides, w.letters)
                    assert psi_inverse(rel, w).letters == back
            assert len(gammas) == len(peels) == 2 * letters


def test_psi_inverse_ignores_the_psi_memo():
    u = natural_order(2)
    sides = _all_sides(u)
    words = [w for n in range(6) for w in words_of_length(2, n)]
    _clear_memos()
    _, _, psi_memo, _ = _memos(u)
    for w in words:
        psi_memo.results[w.letters] = w.letters[::-1]
    for w in words:
        assert psi_inverse(u, w).letters == _oracle_psi_inverse(sides, w.letters)


def test_memo_letter_count_stays_within_budget(monkeypatch):
    # a small budget, so that 500 prefixes (125,250 letters) overflow it often
    budget = 5000
    assert budget < MEMO_LETTERS
    monkeypatch.setattr(transform, "MEMO_LETTERS", budget)
    u = natural_order(4)
    sides = _all_sides(u)
    rng = random.Random(16)
    word = tuple(rng.randint(1, 4) for _ in range(500))
    _clear_memos()
    _, _, psi_memo, inverse_memo = _memos(u)
    for n in range(1, len(word) + 1):
        assert psi_inverse(u, psi(u, Word(word[:n], 4))).letters == word[:n]
        for memo in (psi_memo, inverse_memo):
            assert memo.letters == sum(map(len, memo.results)) <= budget
    assert 0 < psi_memo.letters and 0 < inverse_memo.letters
    assert psi(u, Word(word, 4)).letters == _oracle_psi(sides, word)
    # a key longer than the whole budget is computed but not stored
    monkeypatch.setattr(transform, "MEMO_LETTERS", 8)
    _clear_memos()
    _, _, psi_memo, _ = _memos(u)
    assert psi(u, Word(word[:9], 4)).letters == _oracle_psi(sides, word[:9])
    assert psi_memo.letters == 0 and psi_memo.results == {}


def test_an_over_long_key_keeps_the_stored_keys(monkeypatch):
    # a key longer than the whole budget is skipped before anything is cleared
    monkeypatch.setattr(transform, "MEMO_LETTERS", 8)
    u = natural_order(2)
    sides = _all_sides(u)
    short = [Word(ls, 2) for ls in ((1,), (2,), (1, 1), (2, 1))]
    _clear_memos()
    _, _, psi_memo, inverse_memo = _memos(u)
    for w in short:
        assert psi_inverse(u, psi(u, w)) == w
    stored = (dict(psi_memo.results), dict(inverse_memo.results))
    assert all(stored) and psi_memo.letters == inverse_memo.letters <= 8
    long = Word((1, 2) * 5, 2)
    assert psi(u, long).letters == _oracle_psi(sides, long.letters)
    assert psi_inverse(u, long).letters == _oracle_psi_inverse(sides, long.letters)
    assert (psi_memo.results, inverse_memo.results) == stored


def _batched_images_match_psi(r, masks, max_len):
    """Whether _psi_images gives psi of every word up to max_len, row c of
    length n being the word with base-r digits c, for every mask."""
    words = [list(words_of_length(r, n)) for n in range(max_len + 1)]
    served = []
    for chunk, images in mahonian._psi_images(r, masks, max_len):
        served.extend(chunk)
        assert [img.shape for img in images] == [
            (len(chunk), r**n, n) for n in range(max_len + 1)
        ]
        for j, mask in enumerate(chunk):
            u = Relation.from_mask(r, mask)
            for n, img in enumerate(images):
                expected = [psi(u, w).letters for w in words[n]]
                if list(map(tuple, img[j].tolist())) != expected:
                    return False
    return list(served) == list(masks)


def test_batched_psi_matches_psi_on_every_relation_r3():
    for r in (1, 2, 3):
        assert _batched_images_match_psi(r, range(1 << (r * r)), 6), r


def test_batched_psi_matches_psi_on_sampled_relations_r4(monkeypatch):
    # a small chunk budget, so that the sample spans several chunks
    monkeypatch.setattr(mahonian, "STAGE_CELL_BUDGET", 20_000)
    masks = random.Random(4).sample(range(1 << 16), 64)
    assert _batched_images_match_psi(4, masks, 5)


def test_batched_psi_chunks_hold_as_many_masks_as_the_budget_allows(monkeypatch):
    # a chunk's images stay within STAGE_CELL_BUDGET letters, or hold one
    # mask; every chunk but the last would pass the budget with one more
    monkeypatch.setattr(mahonian, "STAGE_CELL_BUDGET", 20_000)
    for r, max_len, count in ((3, 6, 40), (4, 5, 20), (4, 7, 3)):
        sizes, letters = [], set()
        for chunk, images in mahonian._psi_images(r, range(count), max_len):
            sizes.append(len(chunk))
            letters.add(sum(img.size for img in images) // len(chunk))
        (per_mask,) = letters
        assert sum(sizes) == count
        assert all(size == 1 or size * per_mask <= 20_000 for size in sizes)
        assert all((size + 1) * per_mask > 20_000 for size in sizes[:-1]), (r, max_len)
