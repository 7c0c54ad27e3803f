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
"""

from __future__ import annotations

from .relations import Relation
from .words import Word, check_alphabet

CASE_PIVOTS_RELATED = "i"  # pivots lie in R_x
CASE_PIVOTS_UNRELATED = "ii"  # pivots lie in L_x


def _related_mask(u: Relation, x: int) -> int:
    """Bitmask of R_x = {y : y U x}."""
    return u.column(x)


def _gamma_letters(rmask: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Pivot-first rewrite of the factorization determined by the last letter."""
    if not letters:
        return letters
    pivot_class = (rmask >> (letters[-1] - 1)) & 1
    out: list[int] = []
    block: list[int] = []
    for y in letters:
        if ((rmask >> (y - 1)) & 1) == pivot_class:
            out.append(y)
            out.extend(block)
            block.clear()
        else:
            block.append(y)
    # the last letter is a pivot, so no block letters remain
    return tuple(out)


def _gamma_inverse_letters(rmask: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Undo _gamma_letters; the first letter reveals the pivot class."""
    if not letters:
        return letters
    pivot_class = (rmask >> (letters[0] - 1)) & 1
    out: list[int] = []
    pivot = 0
    for y in letters:
        if ((rmask >> (y - 1)) & 1) == pivot_class:
            if pivot:
                out.append(pivot)
            pivot = y
        else:
            out.append(y)
    out.append(pivot)
    return tuple(out)


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
    rmask = _related_mask(u, x)
    pivot_class = (rmask >> (w.letters[-1] - 1)) & 1
    case = CASE_PIVOTS_RELATED if pivot_class else CASE_PIVOTS_UNRELATED
    parts: list[tuple[Word, int]] = []
    block: list[int] = []
    for y in w.letters:
        if ((rmask >> (y - 1)) & 1) == pivot_class:
            parts.append((Word(tuple(block), w.size), y))
            block.clear()
        else:
            block.append(y)
    return case, parts


def gamma(u: Relation, x: int, w: Word) -> Word:
    """Move each pivot of the x-factorization in front of its block."""
    check_alphabet(u.size, w, x)
    return Word(_gamma_letters(_related_mask(u, x), w.letters), w.size)


def gamma_inverse(u: Relation, x: int, w: Word) -> Word:
    """Inverse rewrite: move each pivot back behind its block."""
    check_alphabet(u.size, w, x)
    return Word(_gamma_inverse_letters(_related_mask(u, x), w.letters), w.size)


def psi(u: Relation, w: Word) -> Word:
    """Apply the transformation to w; the image stays in the class of w."""
    check_alphabet(u.size, w)
    rmasks = [_related_mask(u, x) for x in range(1, u.size + 1)]
    img: tuple[int, ...] = ()
    for x in w.letters:
        img = _gamma_letters(rmasks[x - 1], img) + (x,)
    return Word(img, w.size)


def psi_inverse(u: Relation, w: Word) -> Word:
    """Invert psi by peeling the last letter and undoing one gamma per step."""
    check_alphabet(u.size, w)
    rmasks = [_related_mask(u, x) for x in range(1, u.size + 1)]
    rest = w.letters
    out: list[int] = []
    while rest:
        x = rest[-1]
        out.append(x)
        rest = _gamma_inverse_letters(rmasks[x - 1], rest[:-1])
    return Word(tuple(reversed(out)), w.size)
