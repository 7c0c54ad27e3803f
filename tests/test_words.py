import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majinv import Composition, Word, class_size, composition_of, enumerate_class
from majinv.words import (
    compositions_of_weight,
    compositions_up_to,
    words_of_length,
)


def wd(text, size):
    return Word.parse(text, size)


def test_composition_of_examples():
    assert composition_of(wd("", 3)).counts == (0, 0, 0)
    assert composition_of(wd("3 1 2", 3)).counts == (1, 1, 1)
    assert composition_of(wd("1 1 2", 2)).counts == (2, 1)


def test_enumerate_class_examples():
    assert [w.letters for w in enumerate_class(Composition((1, 1)))] == [(1, 2), (2, 1)]
    assert [w.letters for w in enumerate_class(Composition((2, 1)))] == [
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    ]
    assert [w.letters for w in enumerate_class(Composition((0, 0, 0)))] == [()]


def test_class_size_examples():
    assert class_size(Composition((1, 1, 1))) == 6
    assert class_size(Composition((2, 1))) == 3
    assert class_size(Composition((7,))) == 1


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0, 1), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)
    with pytest.raises(ValueError):
        Word((), 0)
    assert Word([2, 1], 2) == Word((2, 1), 2)  # any sequence is stored as a tuple
    with pytest.raises(ValueError):
        Word((0,), 3)
    with pytest.raises(ValueError):
        Word((4,), 3)
    with pytest.raises(ValueError):
        Composition((1, -1))


def test_text_forms_round_trip():
    w = wd("3 1 2", 3)
    assert w.text() == "3 1 2"
    assert Word.parse(w.text(), 3) == w
    assert wd("", 4).text() == ""
    c = Composition.parse("1,0,2")
    assert c.counts == (1, 0, 2)
    assert Composition.parse(c.text()) == c


def test_enumerate_class_matches_class_size_exhaustively():
    # every composition with weight <= 8 over alphabets up to size 4
    for r in range(1, 5):
        for n in range(9):
            for c in compositions_of_weight(r, n):
                seen = list(enumerate_class(c))
                letters = [w.letters for w in seen]
                assert letters == sorted(letters)
                assert len(set(letters)) == len(letters) == class_size(c)
                assert all(composition_of(w) == c for w in seen)
                # built unchecked, yet equal to and hashing like checked words
                checked = [Word(ls, r) for ls in letters]
                assert seen == checked
                assert [hash(w) for w in seen] == [hash(w) for w in checked]


def test_words_of_length_counts():
    assert sum(1 for _ in words_of_length(3, 4)) == 81
    assert [w.letters for w in words_of_length(2, 1)] == [(1,), (2,)]
    for w in words_of_length(3, 3):
        assert w == Word(w.letters, 3) and hash(w) == hash(Word(w.letters, 3))
    with pytest.raises(ValueError):
        list(words_of_length(0, 0))


def test_compositions_of_weight_counts():
    assert sum(1 for _ in compositions_of_weight(3, 4)) == math.comb(6, 2)
    assert [c.counts for c in compositions_of_weight(2, 2)] == [
        (0, 2),
        (1, 1),
        (2, 0),
    ]


def _recursive_compositions(r, n):
    """The compositions of n into r parts by the first part, then the rest:
    the definition of their lex order."""
    if r == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _recursive_compositions(r - 1, n - first):
            yield (first,) + rest


def test_compositions_of_weight_follow_the_recursive_order():
    for r in range(1, 6):
        for n in range(7):
            listed = [c.counts for c in compositions_of_weight(r, n)]
            assert listed == list(_recursive_compositions(r, n)), (r, n)
            assert len(listed) == math.comb(n + r - 1, r - 1)


def test_compositions_of_weight_need_no_stack_for_many_letters():
    # one level per letter would pass the interpreter's recursion limit
    listed = [c.counts for c in compositions_of_weight(1500, 1)]
    assert len(listed) == 1500
    assert listed[0] == (0,) * 1499 + (1,) and listed[-1] == (1,) + (0,) * 1499


def test_compositions_of_weight_build_one_composition_per_class(monkeypatch):
    built = []
    check = Composition.__post_init__
    monkeypatch.setattr(
        Composition, "__post_init__", lambda c: built.append(c.counts) or check(c)
    )
    listed = [c.counts for c in compositions_of_weight(6, 4)]
    assert built == listed and len(listed) == math.comb(9, 5)


def test_compositions_up_to_concatenates_the_weights():
    for r in range(1, 5):
        for w in range(7):
            expected = [c for n in range(w + 1) for c in compositions_of_weight(r, n)]
            assert list(compositions_up_to(r, w)) == expected


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.tuples(
            st.just(r), st.lists(st.integers(min_value=1, max_value=r), max_size=12)
        )
    )
)
def test_composition_of_counts_letters(args):
    r, letters = args
    w = Word(tuple(letters), r)
    c = composition_of(w)
    assert c.weight == len(w)
    assert all(c.counts[x - 1] == letters.count(x) for x in range(1, r + 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4))
def test_enumerate_class_is_the_full_multiset_orbit(counts):
    c = Composition(tuple(counts))
    from itertools import permutations

    base = [x for x in range(1, len(counts) + 1) for _ in range(counts[x - 1])]
    orbit = sorted(set(permutations(base)))
    assert [w.letters for w in enumerate_class(c)] == orbit


def test_enumerate_class_lists_each_class_in_lex_order():
    for n in range(6):
        for c in compositions_of_weight(3, n):
            letters = [w.letters for w in enumerate_class(c)]
            assert letters == sorted(set(letters))
            assert len(letters) == class_size(c)
            assert all(composition_of(w) == c for w in enumerate_class(c))
    assert [w.letters for w in enumerate_class(Composition((2000,)))] == [(1,) * 2000]


def test_enumerate_class_needs_no_stack_for_long_classes():
    # one word per letter of stack would pass the interpreter's recursion
    # limit here; the iterative successor walk needs none
    (only,) = enumerate_class(Composition((3000,)))
    assert only.letters == (1,) * 3000
    words = [w.letters for w in enumerate_class(Composition((1500, 1)))]
    assert len(words) == 1501
    assert words[0] == (1,) * 1500 + (2,) and words[-1] == (2,) + (1,) * 1500
    assert words == sorted(words)
