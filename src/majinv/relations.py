"""Finite relations on the alphabet [r] and their decision procedures.

A relation U is a set of ordered pairs of letters, stored as one bitmask row
per letter (``rows[x-1]`` has bit ``y-1`` set iff x U y).  The module decides
transitivity, strict total orders, bipartitional relations (with witness
extraction), kappa-extensions (through their need/forbid bounds) and
kappa-extensibility, lists the total orders, computes the kappa-closure, and
converts between relations and the (f, g) parametrization of the relations
below a fixed total order.

A relation S is a kappa-extension of U when U is contained in S and, for all
letters x, y, z:  x U y and not(z U y)  imply  x S z and not(z S x).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

INF = math.inf  # g-map value larger than every letter
JSON_SIZE_CAP = 256  # largest alphabet a relation file may declare


def json_int(value, what: str) -> int:
    """``value`` when it is a JSON integer; bools and floats such as 2.9 or
    2.0 raise ValueError instead of being coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _and_not(a: int, b: int) -> int:
    return a & ~b


@dataclass(frozen=True, slots=True)
class Relation:
    """Relation on [size]; ``rows[x-1]`` is the bitmask of {y : x U y}."""

    size: int
    rows: tuple[int, ...]
    # computed once: relations key per-relation caches, and rehashing grows with r
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")
        if len(self.rows) != self.size:
            raise ValueError("row count does not match alphabet size")
        for row in self.rows:
            if row >> self.size:  # a set bit at index >= size (or row < 0)
                raise ValueError("row bitmask exceeds alphabet size")
        object.__setattr__(self, "_hash", hash((self.size, self.rows)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_pairs(cls, r: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        """Relation containing exactly the listed pairs (duplicates allowed)."""
        rows = [0] * r
        for x, y in pairs:
            if not (1 <= x <= r and 1 <= y <= r):
                raise ValueError(f"pair ({x},{y}) outside alphabet [{r}]")
            rows[x - 1] |= 1 << (y - 1)
        return cls(r, tuple(rows))

    @classmethod
    def from_mask(cls, r: int, mask: int) -> "Relation":
        """Relation from an r*r-bit mask; bit (x-1)*r + (y-1) is the pair (x,y)."""
        if r < 1:
            raise ValueError(f"alphabet size must be >= 1, got {r}")
        if not 0 <= mask < 1 << (r * r):
            raise ValueError("mask out of range")
        # rows cut from an in-range mask need no row check
        full = (1 << r) - 1
        return _trusted_relation(r, tuple((mask >> (x * r)) & full for x in range(r)))

    @property
    def mask(self) -> int:
        m = 0
        for x, row in enumerate(self.rows):
            m |= row << (x * self.size)
        return m

    def contains(self, x: int, y: int) -> bool:
        return bool((self.rows[x - 1] >> (y - 1)) & 1)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs of the relation, sorted."""
        out = []
        for x in range(1, self.size + 1):
            row = self.rows[x - 1]
            for y in range(1, self.size + 1):
                if (row >> (y - 1)) & 1:
                    out.append((x, y))
        return tuple(out)

    def column(self, y: int) -> int:
        """Bitmask of {x : x U y}."""
        bit = 1 << (y - 1)
        col = 0
        for x in range(self.size):
            if self.rows[x] & bit:
                col |= 1 << x
        return col

    def transpose(self) -> "Relation":
        return _trusted_relation(
            self.size, tuple(self.column(y) for y in range(1, self.size + 1))
        )

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def _binop(self, other: "Relation", op) -> "Relation":
        if self.size != other.size:
            raise ValueError("alphabet size mismatch")
        return _trusted_relation(self.size, tuple(map(op, self.rows, other.rows)))

    def __or__(self, other: "Relation") -> "Relation":
        return self._binop(other, operator.or_)

    def __and__(self, other: "Relation") -> "Relation":
        return self._binop(other, operator.and_)

    def __sub__(self, other: "Relation") -> "Relation":
        return self._binop(other, _and_not)

    def issubset(self, other: "Relation") -> bool:
        if self.size != other.size:
            raise ValueError("alphabet size mismatch")
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def to_json_dict(self) -> dict:
        return {"size": self.size, "pairs": [list(p) for p in self.pairs()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Relation":
        """Load the {"size": r, "pairs": [[x,y],...]} form; duplicates rejected."""
        try:
            r = json_int(data["size"], "relation size")
            raw = data["pairs"]
            if not isinstance(raw, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in raw
            ):
                raise TypeError('"pairs" must be a list of [x, y] lists')
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed relation JSON: {exc}") from exc
        if r > JSON_SIZE_CAP:
            raise ValueError(f"relation size {r} is capped at {JSON_SIZE_CAP}")
        pairs = [tuple(json_int(v, "pair letter") for v in p) for p in raw]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate pairs in relation JSON")
        return cls.from_pairs(r, pairs)


# slot setters bypass the frozen __setattr__, as the generated __init__ does
_set_size = Relation.size.__set__
_set_rows = Relation.rows.__set__
_set_hash = Relation._hash.__set__


def _trusted_relation(size: int, rows: tuple[int, ...]) -> Relation:
    """A Relation built without the row checks, for rows derived from valid
    rows of the same size; the hash is still computed once."""
    rel = object.__new__(Relation)
    _set_size(rel, size)
    _set_rows(rel, rows)
    _set_hash(rel, hash((size, rows)))
    return rel


@dataclass(frozen=True, slots=True)
class Bipartition:
    """Ordered blocks (B_1, ..., B_k) of [r] with one bit beta per block.

    The associated relation has x U y iff the block of x precedes the block
    of y, or x and y share a block whose bit is 1.
    """

    blocks: tuple[tuple[int, ...], ...]
    betas: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.betas):
            raise ValueError("one beta bit per block required")
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if tuple(sorted(block)) != block:
                raise ValueError("block letters must be sorted")
            if seen & set(block):
                raise ValueError("blocks overlap")
            seen |= set(block)
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must partition [r]")
        for b in self.betas:
            if b not in (0, 1):
                raise ValueError("beta bits must be 0 or 1")

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def to_json_dict(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks], "betas": list(self.betas)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Bipartition":
        try:
            blocks = tuple(
                tuple(sorted(json_int(x, "block letter") for x in b))
                for b in data["blocks"]
            )
            betas = tuple(json_int(b, "beta bit") for b in data["betas"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed bipartition JSON: {exc}") from exc
        return cls(blocks, betas)


@dataclass(frozen=True, slots=True)
class GMap:
    """A permutation f of [r] and a map g: [r] -> [r] u {INF} with g(y) > y.

    Pairs (f, g) parametrize exactly the relations U such that the total
    order {(x,y) : f(x) > f(y)} is a kappa-extension of U, via
    x U y  iff  f(x) >= g(f(y)).
    """

    f: tuple[int, ...]
    g: tuple[int | float, ...]

    def __post_init__(self) -> None:
        r = len(self.f)
        if sorted(self.f) != list(range(1, r + 1)):
            raise ValueError("f is not a permutation of [r]")
        if len(self.g) != r:
            raise ValueError("g must be defined on all of [r]")
        for y, gy in enumerate(self.g, start=1):
            if gy != INF and (not isinstance(gy, int) or not 1 <= gy <= r):
                raise ValueError(f"g({y}) must lie in [r] or be INF")
            if not gy > y:
                raise ValueError(f"g({y}) = {gy} must exceed {y}")

    @property
    def size(self) -> int:
        return len(self.f)


def natural_order(r: int) -> Relation:
    """The strict natural order: (x, y) iff x > y."""
    # row of letter x+1 keeps bits 0..x-1, i.e. all smaller letters
    return Relation(r, tuple(((1 << r) - 1) >> (r - x) for x in range(r)))


def empty_relation(r: int) -> Relation:
    return Relation(r, (0,) * r)


def full_relation(r: int) -> Relation:
    return Relation(r, ((1 << r) - 1,) * r)


def is_transitive(u: Relation) -> bool:
    """True iff x U y and y U z always imply x U z."""
    rows = u.rows
    for x in range(u.size):
        rx = rows[x]
        m = rx
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if rows[y] & ~rx:
                return False
    return True


def is_total_order(s: Relation) -> bool:
    """True iff S is a strict total order on [r].

    Checks irreflexivity, antisymmetry, totality and transitivity.
    """
    r = s.size
    rows = s.rows
    for x in range(r):
        if (rows[x] >> x) & 1:
            return False
    for x in range(r):
        for y in range(x + 1, r):
            fwd = (rows[x] >> y) & 1
            bwd = (rows[y] >> x) & 1
            if fwd == bwd:  # both (not total) or neither (not antisymmetric)
                return False
    return is_transitive(s)


def is_bipartitional(u: Relation) -> bool:
    """True iff U is transitive and x U y, not(z U y) always imply x U z."""
    if not is_transitive(u):
        return False
    r = u.size
    full = (1 << r) - 1
    rows = u.rows
    cols = [u.column(y) for y in range(1, r + 1)]
    for x in range(r):
        m = rows[x]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if (~cols[y] & full) & ~rows[x]:
                return False
    return True


def relation_from_bipartition(b: Bipartition) -> Relation:
    """The relation determined by ordered blocks and their beta bits."""
    block_of = {x: l for l, block in enumerate(b.blocks) for x in block}

    def holds(x: int, y: int) -> bool:
        lx, ly = block_of[x], block_of[y]
        return lx < ly or (lx == ly and b.betas[lx] == 1)

    return _relation_where(b.size, holds)


def extract_bipartition(u: Relation) -> Bipartition:
    """The unique ordered-block witness of a bipartitional relation.

    Letters with identical row and column bitmasks form a block; blocks are
    ordered by how many letters outside the block they dominate, which is
    strictly decreasing along the block order.
    """
    if not is_bipartitional(u):
        raise ValueError("relation is not bipartitional")
    r = u.size
    cols = [u.column(y) for y in range(1, r + 1)]
    groups: dict[tuple[int, int], list[int]] = {}
    for x in range(1, r + 1):
        groups.setdefault((u.rows[x - 1], cols[x - 1]), []).append(x)
    members = list(groups.values())

    def dominated_outside(block: list[int]) -> int:
        block_mask = 0
        for x in block:
            block_mask |= 1 << (x - 1)
        return (u.rows[block[0] - 1] & ~block_mask).bit_count()

    # the dominated count is strictly decreasing along the block order, so
    # the minimum-element tiebreak never fires; it pins determinism anyway
    members.sort(key=lambda g: (-dominated_outside(g), min(g)))
    blocks = tuple(tuple(sorted(g)) for g in members)
    betas = tuple(1 if u.contains(g[0], g[0]) else 0 for g in blocks)
    return Bipartition(blocks, betas)


def forced_pairs(u: Relation) -> Relation:
    """Every (x, z) with x U y and not(z U y) for some y.

    A kappa-extension of U must contain each forced pair and reverse none.
    """
    rows = u.rows
    return _trusted_relation(
        u.size,
        tuple(sum(1 << z for z, rz in enumerate(rows) if rx & ~rz) for rx in rows),
    )


def kappa_bounds(u: Relation) -> tuple[int, int]:
    """The masks (need, forbid) that bound the kappa-extensions of U.

    need is U with its forced pairs and forbid is the forced pairs reversed:
    S kappa-extends U iff S contains need and meets none of forbid, so the
    extensions form the cube of masks between need and the complement of
    forbid, which is non-empty iff need & forbid == 0.
    """
    forced = forced_pairs(u)
    return (u | forced).mask, forced.transpose().mask


def is_kappa_extension(s: Relation, u: Relation) -> bool:
    """True iff S contains U and its forced pairs, and reverses none of them."""
    if s.size != u.size:
        raise ValueError("alphabet size mismatch")
    need, forbid = kappa_bounds(u)
    mask = s.mask
    return mask & need == need and not mask & forbid


def is_kappa_extensible(u: Relation) -> bool:
    """True iff U admits a kappa-extension.

    Equivalent to: U is transitive and there is no quadruple x, y, z, t with
    x U y, not(z U y), not(x U t), z U t.  Such a quadruple says exactly
    that the rows of x and z are incomparable under inclusion, so the test
    is that the rows form a chain.  A row inside another is also the smaller
    bitmask, so it suffices that each row, sorted as an integer, lies inside
    the next: O(r log r) row operations.
    """
    if not is_transitive(u):
        return False
    rows = sorted(u.rows)
    return all(a & ~b == 0 for a, b in zip(rows, rows[1:]))


def kappa_closure(u: Relation) -> Relation:
    """U together with its forced pairs.

    Defined for arbitrary U; it is the smallest kappa-extension exactly when
    U is kappa-extensible.
    """
    return u | forced_pairs(u)


def order_from_ranks(ranks: Sequence[int]) -> Relation:
    """The total order {(x, y) : ranks[x-1] > ranks[y-1]} for a ranking of [r]."""
    r = len(ranks)
    if sorted(ranks) != list(range(1, r + 1)):
        raise ValueError("ranks must be a permutation of [r]")
    return _relation_where(r, lambda x, y: ranks[x - 1] > ranks[y - 1])


def total_orders(r: int) -> list[Relation]:
    """The r! strict total orders on [r], in increasing mask order."""
    orders = map(order_from_ranks, itertools.permutations(range(1, r + 1)))
    return sorted(orders, key=operator.attrgetter("mask"))


def gmap_to_relation(m: GMap) -> Relation:
    """The relation {(x, y) : f(x) >= g(f(y))}; INF values contribute nothing."""
    f, g = m.f, m.g
    return _relation_where(m.size, lambda x, y: f[x - 1] >= g[f[y - 1] - 1])


def relation_to_gmap(u: Relation, s: Relation) -> GMap:
    """Recover the (f, g) parameters of U below the total order S.

    f ranks letters by S from the bottom (x S y iff f(x) > f(y)) and
    g(b) is the least f-value among {f(x) : x U y} for the letter y of rank
    b, or INF when y has no U-predecessor.  Requires S to be a total order
    and a kappa-extension of U; the map then inverts gmap_to_relation.
    """
    if not is_total_order(s):
        raise ValueError("S is not a total order")
    if not is_kappa_extension(s, u):
        raise ValueError("S is not a kappa-extension of U")
    f = tuple(1 + row.bit_count() for row in s.rows)
    g: list[int | float] = [INF] * s.size
    for y in range(1, s.size + 1):
        preds = [f[x - 1] for x in range(1, s.size + 1) if u.contains(x, y)]
        if preds:
            g[f[y - 1] - 1] = min(preds)
    return GMap(f, tuple(g))


# ---------------------------------------------------------------------------
# Named relation families


def u_k(r: int, k: int) -> Relation:
    """{(x, y) : x >= y + k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _relation_where(r, lambda x, y: x >= y + k)


def v_k(r: int, k: int) -> Relation:
    """{(x, y) : y + k > x > y}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _relation_where(r, lambda x, y: y + k > x > y)


def u_ab(r: int, a: Iterable[int], b: Iterable[int]) -> Relation:
    """{(x, y) : x in A, y in B, x > y}."""
    sa, sb = _subset(r, a), _subset(r, b)
    return Relation.from_pairs(r, [(x, y) for x in sa for y in sb if x > y])


def s_ab(r: int, a: Iterable[int], b: Iterable[int]) -> Relation:
    """A-letters above all non-A letters and ordered by > among themselves.

    The second subset does not enter the definition; it is kept so the three
    u_ab/s_ab/s_prime_ab builders share a signature.
    """
    sa = _subset(r, a)
    _subset(r, b)
    pairs = [(x, y) for x in sa for y in range(1, r + 1) if y not in sa]
    pairs += [(x, y) for x in sa for y in sa if x > y]
    return Relation.from_pairs(r, pairs)


def s_prime_ab(r: int, a: Iterable[int], b: Iterable[int]) -> Relation:
    """s_ab completed to a total order by comparing non-A letters with >."""
    sa = _subset(r, a)
    extra = _relation_where(r, lambda x, y: x not in sa and y not in sa and x > y)
    return s_ab(r, a, b) | extra


def divides(r: int) -> Relation:
    """{(x, y) : x divides y} on [r]."""
    return _relation_where(r, lambda x, y: y % x == 0)


def set_alphabet_relations(
    sets: Sequence[Iterable[int]],
) -> tuple[Relation, Relation, Relation]:
    """Encode disjoint integer sets as letters 1..len(sets); return (U, V, S).

    With B, B' the sets at positions x, y:
      (x, y) in U  iff  min(B) >  max(B'),
      (x, y) in V  iff  max(B') >= min(B) > min(B'),
      (x, y) in S  iff  min(B) >  min(B').
    """
    blocks = [sorted(set(int(v) for v in s)) for s in sets]
    if not blocks:
        raise ValueError("need at least one set")
    seen: set[int] = set()
    for blk in blocks:
        if not blk:
            raise ValueError("empty set in collection")
        if seen & set(blk):
            raise ValueError("sets must be mutually disjoint")
        seen |= set(blk)
    r = len(blocks)
    mn = [0] + [blk[0] for blk in blocks]  # indexed by letter
    mx = [0] + [blk[-1] for blk in blocks]
    return (
        _relation_where(r, lambda x, y: mn[x] > mx[y]),
        _relation_where(r, lambda x, y: mx[y] >= mn[x] > mn[y]),
        _relation_where(r, lambda x, y: mn[x] > mn[y]),
    )


def _relation_where(r: int, holds: Callable[[int, int], bool]) -> Relation:
    """The relation on [r] of the pairs (x, y) with holds(x, y)."""
    letters = range(1, r + 1)
    pairs = [(x, y) for x in letters for y in letters if holds(x, y)]
    return Relation.from_pairs(r, pairs)


def _subset(r: int, letters: Iterable[int]) -> set[int]:
    out = set(int(x) for x in letters)
    for x in out:
        if not 1 <= x <= r:
            raise ValueError(f"letter {x} outside alphabet [{r}]")
    return out
