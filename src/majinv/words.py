"""Words over the integer alphabet [r] and their rearrangement classes.

A word is a finite sequence of letters from ``{1, ..., r}``.  The
rearrangement class of a word is the set of all words with the same letter
multiplicities; it is described by a composition ``(c(1), ..., c(r))`` of
non-negative letter counts.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterator

_DECIMAL = re.compile(r"0|[1-9][0-9]*")  # ASCII digits, no sign, no leading zero
_SIGNED = re.compile(r"0|-?[1-9][0-9]*")  # the same with "-" before a non-zero


def _decimal(token: str, what: str, signed: bool = False) -> int:
    """The integer written canonically as ``token``, with a leading "-" only
    when ``signed``; int() alone would also take "+1", "02", "1_0", "-0" and
    non-ASCII digits."""
    if not (_SIGNED if signed else _DECIMAL).fullmatch(token):
        raise ValueError(f"bad {what} {token!r}: expected digits 0-9, no leading zero")
    return int(token)


@dataclass(frozen=True, slots=True)
class Word:
    """A word over [size]; ``letters`` may be empty (the empty word)."""

    letters: tuple[int, ...]
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")
        if type(self.letters) is not tuple:  # hashable, so it can key a memo
            _set_letters(self, tuple(self.letters))
        for x in self.letters:
            if not 1 <= x <= self.size:
                raise ValueError(f"letter {x} outside alphabet [{self.size}]")

    @classmethod
    def parse(cls, text: str, size: int) -> "Word":
        """Parse the whitespace-separated text form; "" is the empty word."""
        return cls(tuple(_decimal(p, "letter") for p in text.split()), size)

    def text(self) -> str:
        return " ".join(str(x) for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i: int) -> int:
        return self.letters[i]


# slot setters bypass the frozen __setattr__, as the generated __init__ does
_set_letters = Word.letters.__set__
_set_size = Word.size.__set__


def _trusted_word(letters: tuple[int, ...], size: int) -> Word:
    """A Word built without the letter check, for letters already known to
    lie in [size], such as a rearrangement of a checked word's letters."""
    w = object.__new__(Word)
    _set_letters(w, letters)
    _set_size(w, size)
    return w


@dataclass(frozen=True, slots=True)
class Composition:
    """Letter-count vector ``(c(1), ..., c(r))`` of a rearrangement class."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("composition needs at least one part")
        for c in self.counts:
            if c < 0:
                raise ValueError(f"negative count {c}")

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse the comma-separated text form, e.g. "1,1,1"."""
        return cls(tuple(_decimal(p, "count") for p in text.split(",")))

    def text(self) -> str:
        return ",".join(str(c) for c in self.counts)

    @property
    def size(self) -> int:
        """Alphabet size r."""
        return len(self.counts)

    @property
    def weight(self) -> int:
        """Total number of letters n."""
        return sum(self.counts)


def check_alphabet(size: int, w: Word, x: int | None = None) -> None:
    """Raise ValueError unless the letters of w, and the letter x when given,
    lie in [size].

    Every Word keeps its letters in [w.size]: the constructor checks them,
    and ``_trusted_word`` is only given letters known to lie there (pieces
    or rearrangements of a checked word, or letters generated in range).  So
    a word over at most ``size`` letters passes without a scan; only a word
    over a larger alphabet has its largest letter read.
    """
    if w.size > size and w.letters and max(w.letters) > size:
        raise ValueError(f"word letters exceed alphabet [{size}]")
    if x is not None and not 1 <= x <= size:
        raise ValueError(f"letter {x} outside alphabet [{size}]")


def composition_of(w: Word) -> Composition:
    """Letter multiplicities of ``w`` over its alphabet."""
    counts = [0] * w.size
    for x in w.letters:
        counts[x - 1] += 1
    return Composition(tuple(counts))


def class_size(c: Composition) -> int:
    """Number of words in the rearrangement class: n! / prod c(i)!."""
    n = c.weight
    denom = math.prod(math.factorial(k) for k in c.counts)
    return math.factorial(n) // denom


def enumerate_class(c: Composition) -> Iterator[Word]:
    """Yield every word of the rearrangement class in increasing lex order.

    Iterative, so a long class needs no deeper stack: each word is the
    next permutation of the one before, starting from the sorted word and
    ending at the reversed one."""
    r = c.size
    letters: list[int] = []
    for x, m in enumerate(c.counts, start=1):
        letters += [x] * m
    last = letters[::-1]
    while True:
        yield _trusted_word(tuple(letters), r)
        if letters == last:
            return
        # the last ascent i, swapped with the last letter above letters[i];
        # the tail after i is non-increasing, so reversing sorts it
        i = len(letters) - 2
        while letters[i] >= letters[i + 1]:
            i -= 1
        j = len(letters) - 1
        while letters[j] <= letters[i]:
            j -= 1
        letters[i], letters[j] = letters[j], letters[i]
        letters[i + 1 :] = letters[:i:-1]


def words_of_length(r: int, n: int) -> Iterator[Word]:
    """All r**n words of length n over [r], in lex order."""
    if r < 1:
        raise ValueError(f"alphabet size must be >= 1, got {r}")
    for tup in itertools.product(range(1, r + 1), repeat=n):
        yield _trusted_word(tup, r)


def compositions_of_weight(r: int, n: int) -> Iterator[Composition]:
    """All compositions of n into r non-negative parts, in lex order: their
    r - 1 partial sums are the non-decreasing tuples over 0..n, in lex order."""
    if r < 1:
        raise ValueError("need at least one part")
    if r == 1:  # one class, where the tuples would copy n + 1 sums for it
        yield Composition((n,))
        return
    for sums in itertools.combinations_with_replacement(range(n + 1), r - 1):
        yield Composition(tuple(map(operator.sub, sums + (n,), (0,) + sums)))


def compositions_up_to(r: int, max_weight: int) -> tuple[Composition, ...]:
    """All compositions into r parts of weight 0..max_weight: by weight, then
    in lex order."""
    return tuple(
        c for n in range(max_weight + 1) for c in compositions_of_weight(r, n)
    )
