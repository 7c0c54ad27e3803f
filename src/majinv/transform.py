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

One kernel serves every entry point.  ``_pivot_classes(u)`` tabulates, once
per relation, the class of each letter against each x: ``cls = table[x]``
has ``cls[y] = 1`` for y in R_x and 0 for y in L_x.  The rewrites
``_gamma_letters`` and ``_gamma_inverse_letters`` read that tuple instead of
shifting a bitmask, and work on lists; the tables sit in a small LRU cache,
since a relation is typically applied to many words in a row.

``psi`` and ``psi_inverse`` also remember their results.  ``_memos(u)``
holds, for the one most recent relation, the pivot-class table, a memo of
psi images and a memo of psi_inverse preimages, each keyed by the argument's
letters.  Keeping four relations raised the peak memory of the psi bench by
5.5% and saved no time, so one is held, in a module slot that compares the
relation by identity before equality: callers pass the same Relation object
for many words in a row, and ``is`` settles that case without the call to
the Python-level ``Relation.__hash__`` that an ``lru_cache`` lookup makes.
An equal but distinct relation still finds the held memos; any other
relation replaces them.  A call on w x first looks up w x; on a miss it
takes the stored image of w and applies one gamma, and only when w is
missing too does it run the whole chain, iteratively and without storing
the intermediate images.  psi_inverse peels the last letter once and looks
the rest up in its own memo; it never reads the psi memo, so a round trip
checks two independent computations.  Each memo is emptied when the letters
of its keys would pass MEMO_LETTERS.

The gain is for prefix-closed per-word traffic, where the one-letter-shorter
subproblem was asked for earlier with the same relation, such as all words
up to some length in length order.  Other calls pay the lookups and the
stores on top of the full chain.

``psi_images`` serves the bulk case instead, every word up to a length under
many relations, as it arises in ``mahonian.verify_psi``: it applies the same
recursion to all words of one length and a chunk of relations at once, in
numpy arrays, and neither reads nor fills the memos.
"""

from __future__ import annotations

from functools import lru_cache
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
IMAGE_CELL_BUDGET = 1 << 16  # letters per psi_images chunk; bounds its temporaries


@lru_cache(maxsize=4)
def _pivot_classes(u: Relation) -> tuple[tuple[int, ...], ...]:
    """``table[x][y] = 1 if y U x else 0``, both indexed by letter (entry 0
    pads).  About 0.5 MB at 256 letters, hence the small cache."""
    return ((),) + tuple(
        (0,) + tuple((row >> x) & 1 for row in u.rows) for x in range(u.size)
    )


class _Memo:
    """Results of one map under one relation, keyed by argument letters."""

    __slots__ = ("results", "letters")

    def __init__(self) -> None:
        self.results: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.letters = 0  # total length of the keys

    def store(self, key: tuple[int, ...], value: tuple[int, ...]) -> None:
        n = len(key)
        if self.letters + n > MEMO_LETTERS:
            self.results.clear()
            self.letters = 0
            if n > MEMO_LETTERS:
                return
        self.results[key] = value
        self.letters += n


# the one relation whose memos are held: (relation, pivot-class table, psi
# memo, psi_inverse memo); the relation slot is None while nothing is held
_NOTHING_HELD = (None, (), None, None)
_held: tuple = _NOTHING_HELD


def _memos(u: Relation) -> tuple:
    """The held (relation, table, psi memo, psi_inverse memo), swapped to u
    first unless u is, or equals, the held relation."""
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
    cls = _pivot_classes(u)[x]
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
    cls = _pivot_classes(u)[x]
    return _trusted_word(tuple(_gamma_letters(cls, w.letters)), w.size)


def gamma_inverse(u: Relation, x: int, w: Word) -> Word:
    """Inverse rewrite: move each pivot back behind its block."""
    check_alphabet(u.size, w, x)
    cls = _pivot_classes(u)[x]
    return _trusted_word(tuple(_gamma_inverse_letters(cls, w.letters)), w.size)


def _psi_letters(u: Relation, ls: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of psi(u, ls), read from or added to the psi memo of u."""
    if not ls:
        return ls
    _, table, memo, _ = _memos(u)
    results = memo.results
    img = results.get(ls)
    if img is not None:
        return img
    prev = results.get(ls[:-1])
    if prev is None:
        prev = []
        for x in ls[:-1]:
            prev = _gamma_letters(table[x], prev)
            prev.append(x)
    x = ls[-1]
    out = _gamma_letters(table[x], prev)
    out.append(x)
    img = tuple(out)
    n = len(ls)
    if memo.letters + n <= MEMO_LETTERS:  # the store, inline while in budget
        results[ls] = img
        memo.letters += n
    else:
        memo.store(ls, img)
    return img


def _psi_inverse_letters(u: Relation, ls: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of psi_inverse(u, ls), from or into the psi_inverse memo of u."""
    if not ls:
        return ls
    _, table, _, memo = _memos(u)
    results = memo.results
    pre = results.get(ls)
    if pre is not None:
        return pre
    x = ls[-1]
    rest = tuple(_gamma_inverse_letters(table[x], ls[:-1]))
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
    pre = head + (x,)
    n = len(ls)
    if memo.letters + n <= MEMO_LETTERS:  # the store, inline while in budget
        results[ls] = pre
        memo.letters += n
    else:
        memo.store(ls, pre)
    return pre


def psi_images(r: int, masks: Sequence[int], max_len: int):
    """psi of every word of length <= max_len over [r], under the relations
    with the given masks, for a chunk of consecutive masks at a time.

    Yields ``(chunk, images)``: ``chunk`` is the slice of ``masks`` served and
    ``images[n]`` an int8 array of shape (len(chunk), r**n, n) whose row c,
    for relation j, holds the letters of psi of the word whose letters less
    one are the base-r digits of c, most significant first.

    All words of one length go at once through psi(w x) = gamma_x(psi(w)) x,
    with psi(w) the row c // r of the length before.  The pivot class of each
    letter comes from ``_pivot_classes``.  The factorization of psi(w) is a
    run of groups, each a block followed by the pivot that closes it, and
    gamma_x rotates every group right by one, so that its pivot comes first;
    this is the stable sort of the row on (pivots strictly before, 0 for a
    pivot or 1 for a block letter), done as one gather.  A row ends with a
    pivot, so the rows are laid end to end and no group crosses two of them.
    Chunks stay under IMAGE_CELL_BUDGET letters, which bounds the temporaries.
    """
    # imported here, not with the module: loading numpy ahead of mahonian
    # raised the peak resident memory of every bench workload by about 1 MB
    import numpy as np

    per_relation = sum(n * r**n for n in range(max_len + 1))
    step = max(1, IMAGE_CELL_BUDGET // max(1, per_relation))
    appended = np.arange(r, dtype=np.int8)  # the appended letter less one, c % r
    for lo in range(0, len(masks), step):
        chunk = masks[lo : lo + step]
        m = len(chunk)
        cls = np.array(
            [
                [row[1:] for row in _pivot_classes(Relation.from_mask(r, mask))[1:]]
                for mask in chunk
            ],
            dtype=np.int64,
        ).reshape(m, r, r)
        # related[j, x - 1] has bit y - 1 set iff y U x, for relation j
        related = (cls << np.arange(r)).sum(axis=-1)
        related = related.astype(np.min_scalar_type(-(1 << r)))
        images = [np.zeros((m, 1, 0), dtype=np.int8)]
        if max_len:
            images.append(np.tile(appended[:, None] + 1, (m, 1, 1)))
        for n in range(2, max_len + 1):
            k = n - 1
            prev = np.repeat(images[-1], r, axis=1)  # psi(w) in row c of w x
            x = np.tile(appended, r**k)
            cls_x = (related[:, x, None] >> (prev - 1)) & 1
            pivot = (cls_x == cls_x[..., -1:]).ravel()
            at = np.arange(pivot.size)
            # where each slot of the rotated row reads from: the pivot that
            # closes its group when the slot opens one, else the slot before.
            # A slot opens a group when the slot before is a pivot; a row's
            # first slot follows the last of another row, always a pivot.
            closing = np.minimum.accumulate(np.where(pivot, at, pivot.size)[::-1])[::-1]
            source = np.where(np.roll(pivot, 1), closing, at - 1)
            img = np.empty((m, r**n, n), dtype=np.int8)
            img[..., :-1] = prev.ravel()[source].reshape(m, r**n, k)
            img[..., -1] = x + 1
            images.append(img)
        yield chunk, images


def psi(u: Relation, w: Word) -> Word:
    """Apply the transformation to w; the image stays in the class of w."""
    check_alphabet(u.size, w)
    # the body of _trusted_word, inline: the image rearranges w's letters
    img = _new(Word)
    _set_letters(img, _psi_letters(u, w.letters))
    _set_size(img, w.size)
    return img


def psi_inverse(u: Relation, w: Word) -> Word:
    """Invert psi by peeling the last letter and undoing one gamma per step."""
    check_alphabet(u.size, w)
    pre = _new(Word)
    _set_letters(pre, _psi_inverse_letters(u, w.letters))
    _set_size(pre, w.size)
    return pre
