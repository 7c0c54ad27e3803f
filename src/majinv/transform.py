"""The relation-parametrized second fundamental transformation.

Fix a relation U on [r].  Each letter x splits the alphabet into
R_x = {y : y U x} and L_x = {y : not (y U x)}.  A non-empty word w factors
uniquely as w_1 x_1 w_2 x_2 ... w_h x_h where the pivots x_i and the block
letters are classified by the last letter of w:

  case "i"  (last letter in R_x): pivots in R_x, blocks over L_x,
  case "ii" (last letter in L_x): pivots in L_x, blocks over R_x.

The letter rewrite gamma moves each pivot in front of its block, and the
transformation psi applies gamma letter by letter:

  psi(empty) = empty,    psi(w x) = gamma(x, psi(w)) x.

psi permutes every rearrangement class, fixes the last letter, and when S is
a kappa-extension of U carries maj'_U + inv'_{S minus U} to inv'_S.  The
natural order U = ">" recovers the classical Foata bijection sending maj to
inv.

One kernel serves every entry point.  ``_pivot_column(u, x)`` gives the
class of each letter against x: ``cls[y] = 1`` for y in R_x, 0 for y in L_x.
The list rewrites ``_gamma_letters`` and ``_gamma_inverse_letters`` read it.
``gamma``, ``gamma_inverse`` and ``x_factorization`` build only the column
they read; ``_pivot_classes(u)``, the tuple of all the columns, is built
by ``_memos`` for psi and psi_inverse, which apply many letters under one
relation.

``psi`` and ``psi_inverse`` remember their results.  ``_memos(u)`` holds,
for the one most recent relation, its pivot-class table, a memo of psi
images and a memo of psi_inverse preimages, keyed by the argument's letters.
Holding four relations raised the psi bench's peak memory by 5.5% and saved
no time.  The slot compares the relation by identity before equality, since
callers pass one Relation object for many words in a row; an equal relation
keeps the held table and memos, any other builds a table and replaces them.

Each direction has one path.  psi on w x looks up w x; on a miss it starts
from the stored image of w, or from the empty word, and applies one gamma
per remaining letter, storing no intermediate image.  psi_inverse peels the
last letter, looks the rest up in its own memo, and on a miss peels letter
by letter; it never reads the psi memo, so a round trip checks two
independent computations.  ``_Memo.store`` empties a memo when its keys
would pass MEMO_LETTERS letters, and skips a key longer than that.

The gain is for prefix-closed per-word traffic, where the one-letter-shorter
subproblem was asked for earlier with the same relation, such as all words
up to some length in length order.  Other calls pay the lookups and the
stores on top of the full chain.

This module holds only the per-word maps and uses no numpy.  The bulk
case, every word up to a length under many relations, is left to
``mahonian.verify_psi``: its array kernel applies the same recursion to all
words of one length and a chunk of relations at once, and neither reads nor
fills these memos.
"""

from __future__ import annotations

from typing import Sequence

from .relations import Relation
from .words import Word, _set_letters, _set_size, _trusted_word, check_alphabet

_new = object.__new__  # psi and psi_inverse build their Word as _trusted_word does

CASE_PIVOTS_RELATED = "i"  # pivots lie in R_x
CASE_PIVOTS_UNRELATED = "ii"  # pivots lie in L_x
# letters of stored keys one memo may hold: enough for every word over [3] up
# to length 10 (841,449 letters), prefix-closed per-word traffic well past the
# psi bench's words up to length 7
MEMO_LETTERS = 1 << 20


def _pivot_column(u: Relation, x: int) -> tuple[int, ...]:
    """``cls[y] = 1 if y U x else 0``, indexed by letter (entry 0 pads)."""
    bit = x - 1
    return (0,) + tuple((row >> bit) & 1 for row in u.rows)


def _pivot_classes(u: Relation) -> tuple[tuple[int, ...], ...]:
    """``table[x] = _pivot_column(u, x)`` for every letter x (entry 0 pads).
    About 0.5 MB at 256 letters; only ``_memos`` builds one, for its relation."""
    return ((),) + tuple(_pivot_column(u, x) for x in range(1, u.size + 1))


class _Memo:
    """Results of one map under one relation, keyed by argument letters."""

    __slots__ = ("results", "letters")

    def __init__(self) -> None:
        self.results: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.letters = 0  # total length of the keys

    def store(self, key: tuple[int, ...], value: tuple[int, ...]) -> None:
        """Add key, emptying the memo first when its keys would pass
        MEMO_LETTERS letters.  A key longer than that is not stored, and
        clears nothing."""
        n = len(key)
        if self.letters + n > MEMO_LETTERS:
            if n > MEMO_LETTERS:
                return
            self.results.clear()
            self.letters = 0
        self.results[key] = value
        self.letters += n


# the one relation whose memos are held: (relation, pivot-class table, psi
# memo, psi_inverse memo); the relation slot is None while nothing is held
_NOTHING_HELD = (None, (), None, None)
_held: tuple = _NOTHING_HELD


def _memos(u: Relation) -> tuple:
    """The held (relation, table, psi memo, psi_inverse memo), swapped to u,
    with a table built for it, unless u is, or equals, the held relation."""
    global _held
    held = _held
    if held[0] is not u and held[0] != u:
        held = _held = (u, _pivot_classes(u), _Memo(), _Memo())
    return held


def _clear_memos() -> None:
    """Drop the held relation and its memos."""
    global _held
    _held = _NOTHING_HELD


def _gamma_letters(cls: tuple[int, ...], letters: Sequence[int]) -> list[int]:
    """Pivot-first rewrite of the factorization determined by the last letter."""
    if not letters:
        return []
    pivot_class = cls[letters[-1]]
    out: list[int] = []
    block: list[int] = []
    for y in letters:
        if cls[y] == pivot_class:
            out.append(y)
            if block:
                out += block
                block = []
        else:
            block.append(y)
    # the last letter is a pivot, so no block letters remain
    return out


def _gamma_inverse_letters(
    cls: tuple[int, ...], letters: Sequence[int]
) -> list[int]:
    """Undo _gamma_letters; the first letter reveals the pivot class."""
    if not letters:
        return []
    pivot_class = cls[letters[0]]
    out: list[int] = []
    pivot = 0
    for y in letters:
        if cls[y] == pivot_class:
            if pivot:
                out.append(pivot)
            pivot = y
        else:
            out.append(y)
    out.append(pivot)
    return out


def x_factorization(
    u: Relation, w: Word, x: int
) -> tuple[str, list[tuple[Word, int]]]:
    """Split w into (block, pivot) parts classified against the letter x.

    Returns ("i", parts) when the last letter of w is related to x, else
    ("ii", parts); concatenating block + pivot over the parts restores w.
    """
    if not w.letters:
        raise ValueError("the empty word has no factorization")
    check_alphabet(u.size, w, x)
    cls = _pivot_column(u, x)
    letters = w.letters
    pivot_class = cls[letters[-1]]
    case = CASE_PIVOTS_RELATED if pivot_class else CASE_PIVOTS_UNRELATED
    parts: list[tuple[Word, int]] = []
    start = 0
    for i, y in enumerate(letters):
        if cls[y] == pivot_class:
            parts.append((_trusted_word(letters[start:i], w.size), y))
            start = i + 1
    return case, parts


def gamma(u: Relation, x: int, w: Word) -> Word:
    """Move each pivot of the x-factorization in front of its block."""
    check_alphabet(u.size, w, x)
    cls = _pivot_column(u, x)
    return _trusted_word(tuple(_gamma_letters(cls, w.letters)), w.size)


def gamma_inverse(u: Relation, x: int, w: Word) -> Word:
    """Inverse rewrite: move each pivot back behind its block."""
    check_alphabet(u.size, w, x)
    cls = _pivot_column(u, x)
    return _trusted_word(tuple(_gamma_inverse_letters(cls, w.letters)), w.size)


def psi(u: Relation, w: Word) -> Word:
    """Apply the transformation to w; the image stays in the class of w."""
    # per-word calls: only a word over a larger alphabet can fail the check,
    # and an identical relation needs no _memos call; the two calls saved per
    # word offset the _Memo.store call
    if w.size > u.size:
        check_alphabet(u.size, w)
    letters = w.letters
    if letters:
        _, table, memo, _ = _held if _held[0] is u else _memos(u)
        results = memo.results
        image = results.get(letters)
        if image is None:
            # psi keeps length: a stored prefix image leaves one letter to apply
            out = results.get(letters[:-1], ())
            for x in letters[len(out) :]:
                out = _gamma_letters(table[x], out)
                out.append(x)
            image = tuple(out)
            memo.store(letters, image)
        letters = image
    # the body of _trusted_word, inline: the image rearranges w's letters
    img = _new(Word)
    _set_letters(img, letters)
    _set_size(img, w.size)
    return img


def psi_inverse(u: Relation, w: Word) -> Word:
    """Invert psi by peeling the last letter and undoing one gamma per step."""
    if w.size > u.size:
        check_alphabet(u.size, w)
    letters = w.letters
    if letters:
        _, table, _, memo = _held if _held[0] is u else _memos(u)
        results = memo.results
        preimage = results.get(letters)
        if preimage is None:
            x = letters[-1]
            rest = tuple(_gamma_inverse_letters(table[x], letters[:-1]))
            head = results.get(rest)
            if head is None:
                peeled: list[int] = []
                stack = list(rest)
                while stack:
                    y = stack.pop()
                    peeled.append(y)
                    stack = _gamma_inverse_letters(table[y], stack)
                peeled.reverse()
                head = tuple(peeled)
            preimage = head + (x,)
            memo.store(letters, preimage)
        letters = preimage
    pre = _new(Word)
    _set_letters(pre, letters)
    _set_size(pre, w.size)
    return pre
