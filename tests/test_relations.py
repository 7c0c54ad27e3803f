import itertools
import math
import random
from operator import and_, or_, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_gmaps, kappa_extension_by_definition
from majinv import (
    INF,
    Bipartition,
    GMap,
    Relation,
    divides,
    empty_relation,
    extract_bipartition,
    full_relation,
    gmap_to_relation,
    is_bipartitional,
    is_kappa_extensible,
    is_kappa_extension,
    is_total_order,
    is_transitive,
    kappa_closure,
    natural_order,
    order_from_ranks,
    relation_from_bipartition,
    relation_to_gmap,
    s_ab,
    s_prime_ab,
    set_alphabet_relations,
    u_ab,
    u_k,
    v_k,
)
from majinv.mahonian import enumerate_relations
from majinv.relations import JSON_SIZE_CAP, forced_pairs, total_orders

CHAIN = Relation.from_pairs(3, [(1, 2), (2, 3)])


def rel(r, pairs):
    return Relation.from_pairs(r, pairs)


def test_from_pairs():
    assert rel(3, []).pairs() == ()
    assert rel(3, [(1, 2), (1, 3), (1, 2)]).pairs() == ((1, 2), (1, 3))
    assert rel(2, [(2, 1)]) == natural_order(2)
    with pytest.raises(ValueError):
        rel(3, [(0, 1)])
    with pytest.raises(ValueError):
        rel(3, [(1, 4)])


def test_natural_order():
    assert natural_order(1).pairs() == ()
    assert natural_order(2).pairs() == ((2, 1),)
    assert natural_order(3).pairs() == ((2, 1), (3, 1), (3, 2))


def test_is_transitive():
    assert is_transitive(natural_order(5))
    assert not is_transitive(CHAIN)
    assert is_transitive(empty_relation(4))
    assert is_transitive(full_relation(3))


def test_is_total_order():
    assert is_total_order(natural_order(4))
    assert not is_total_order(full_relation(3))
    assert not is_total_order(rel(3, [(2, 1), (3, 1)]))
    assert is_total_order(rel(3, [(1, 2), (1, 3), (2, 3)]))
    # cyclic tournament: total and antisymmetric but not transitive
    assert not is_total_order(rel(3, [(1, 2), (2, 3), (3, 1)]))


def test_is_bipartitional_examples():
    assert is_bipartitional(natural_order(4))
    assert not is_bipartitional(CHAIN)
    assert is_bipartitional(full_relation(3))
    assert is_bipartitional(empty_relation(3))


def test_extract_bipartition_examples():
    b = extract_bipartition(natural_order(3))
    assert b.blocks == ((3,), (2,), (1,)) and b.betas == (0, 0, 0)
    b = extract_bipartition(full_relation(2))
    assert b.blocks == ((1, 2),) and b.betas == (1,)
    b = extract_bipartition(empty_relation(2))
    assert b.blocks == ((1, 2),) and b.betas == (0,)
    with pytest.raises(ValueError):
        extract_bipartition(CHAIN)


def test_relation_from_bipartition_examples():
    assert relation_from_bipartition(Bipartition(((1, 2),), (1,))) == full_relation(2)
    assert relation_from_bipartition(Bipartition(((2,), (1,)), (0, 0))).pairs() == ((2, 1),)
    assert relation_from_bipartition(Bipartition(((1,), (2,)), (0, 0))).pairs() == ((1, 2),)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition(((1,), (1, 2)), (0, 0))  # overlap
    with pytest.raises(ValueError):
        Bipartition(((1,), (3,)), (0, 0))  # not a partition of [r]
    with pytest.raises(ValueError):
        Bipartition(((1, 2),), (2,))  # bad beta


def test_is_kappa_extension_examples():
    # S = {(x,y),(x,z)} extends U = {(x,y)} with x=1, y=2, z=3
    assert is_kappa_extension(rel(3, [(1, 2), (1, 3)]), rel(3, [(1, 2)]))
    for r in range(1, 5):
        for k in range(1, r + 2):
            assert is_kappa_extension(natural_order(r), u_k(r, k))
    for r in range(1, 4):
        for mask in range(1 << (r * r)):
            t = Relation.from_mask(r, mask)
            if is_total_order(t):
                assert is_kappa_extension(t, t)
    with pytest.raises(ValueError):
        is_kappa_extension(natural_order(2), natural_order(3))


def test_is_kappa_extension_matches_definition():
    for r in (1, 2):
        rels = list(enumerate_relations(r))
        for u in rels:
            for s in rels:
                assert is_kappa_extension(s, u) == kappa_extension_by_definition(
                    r, u.mask, s.mask
                )
    # at r = 3, every U against its closure and against seeded supersets
    rng = random.Random(5)
    for u in enumerate_relations(3):
        closure = kappa_closure(u)
        candidates = [closure] + [
            u | Relation.from_mask(3, rng.randrange(512)) for _ in range(8)
        ]
        for s in candidates:
            assert is_kappa_extension(s, u) == kappa_extension_by_definition(
                3, u.mask, s.mask
            )


def test_derived_relations_equal_and_hash_like_checked_ones():
    # operators build their results without re-checking the rows
    for r in (1, 2):
        rels = list(enumerate_relations(r))
        for a in rels:
            derived = [a.transpose(), forced_pairs(a), kappa_closure(a)]
            derived += [op(a, b) for b in rels for op in (or_, and_, sub)]
            for d in derived:
                checked = Relation(r, d.rows)
                assert d == checked and hash(d) == hash(checked)
    with pytest.raises(ValueError, match="exceeds alphabet size"):
        Relation(3, (8, 0, 0))


def test_is_kappa_extensible_examples():
    assert not is_kappa_extensible(CHAIN)
    assert not is_kappa_extensible(divides(9))
    assert is_kappa_extensible(empty_relation(3))
    # the divisibility witness quadruple: 3|9, not 2|9, not 3|4, 2|4
    d = divides(9)
    assert d.contains(3, 9) and not d.contains(2, 9)
    assert not d.contains(3, 4) and d.contains(2, 4)


def test_kappa_closure_examples():
    assert kappa_closure(rel(3, [(1, 2)])).pairs() == ((1, 2), (1, 3))
    assert kappa_closure(empty_relation(3)) == empty_relation(3)
    for r in range(1, 5):
        assert kappa_closure(natural_order(r)) == natural_order(r)


def test_gmap_validation():
    with pytest.raises(ValueError):
        GMap((1, 1), (2, INF))  # not a permutation
    with pytest.raises(ValueError):
        GMap((1, 2), (1, INF))  # g(1) must exceed 1
    with pytest.raises(ValueError):
        GMap((1, 2), (2, 2))  # g(2) must exceed 2
    GMap((2, 1), (2, INF))  # valid


def test_gmap_to_relation_examples():
    succ = GMap((1, 2, 3), (2, 3, INF))
    assert gmap_to_relation(succ) == natural_order(3)
    nothing = GMap((1, 2, 3), (INF, INF, INF))
    assert gmap_to_relation(nothing) == empty_relation(3)
    m = GMap((1, 2, 3), (2, INF, INF))
    assert gmap_to_relation(m).pairs() == ((2, 1), (3, 1))


def test_relation_to_gmap_examples():
    m = relation_to_gmap(natural_order(3), natural_order(3))
    assert m.f == (1, 2, 3) and m.g == (2, 3, INF)
    m = relation_to_gmap(empty_relation(4), natural_order(4))
    assert m.g == (INF, INF, INF, INF)
    m = relation_to_gmap(u_k(3, 2), natural_order(3))
    assert m.f == (1, 2, 3) and m.g == (3, INF, INF)
    with pytest.raises(ValueError):
        relation_to_gmap(empty_relation(3), full_relation(3))
    with pytest.raises(ValueError):
        relation_to_gmap(rel(3, [(1, 2)]), natural_order(3))  # U not below ">"


def test_builders():
    assert u_k(3, 1) == natural_order(3)
    # at k = r the descent part empties out and the inversion part is the
    # full natural order, matching the inv endpoint of the family
    assert u_k(3, 3) == empty_relation(3)
    assert v_k(3, 3) == natural_order(3)
    for r in range(1, 5):
        for k in range(1, r + 1):
            assert (u_k(r, k) & v_k(r, k)) == empty_relation(r)
            assert (u_k(r, k) | v_k(r, k)) == natural_order(r)
    assert u_ab(4, [1, 2, 3, 4], [1, 2, 3, 4]) == natural_order(4)
    with pytest.raises(ValueError):
        u_k(3, 0)


def test_s_ab_builders():
    s = s_ab(3, [1, 3], [2])
    assert s.pairs() == ((1, 2), (3, 1), (3, 2))
    sp = s_prime_ab(3, [2], [1])
    assert is_total_order(sp)
    # dominance block structure of s_ab: singletons of A descending, then A-complement
    b = extract_bipartition(s_ab(4, [2, 4], [1]))
    assert b.blocks == ((4,), (2,), (1, 3)) and b.betas == (0, 0, 0)


def test_set_alphabet_relations():
    sets = [[3, 9], [2], [1, 4, 8], [7], [5, 6]]
    u, v, s = set_alphabet_relations(sets)
    assert u.size == v.size == s.size == 5
    assert (u & v) == empty_relation(5)
    assert (u | v) == s
    assert is_kappa_extension(s, u)
    assert is_total_order(s)
    with pytest.raises(ValueError):
        set_alphabet_relations([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        set_alphabet_relations([[1], []])


def test_relation_json_round_trip():
    r = rel(3, [(1, 2), (3, 1)])
    assert Relation.from_json_dict(r.to_json_dict()) == r
    with pytest.raises(ValueError):
        Relation.from_json_dict({"size": 3, "pairs": [[1, 2], [1, 2]]})
    with pytest.raises(ValueError):
        Relation.from_json_dict({"pairs": []})


@pytest.mark.parametrize(
    "data",
    [
        {"size": 2.9, "pairs": [[True, 1.5]]},  # loaded as {(1,1)} on [2] by int()
        {"size": 2.0, "pairs": []},
        {"size": True, "pairs": []},
        {"size": 2, "pairs": [[True, 1]]},
        {"size": 2, "pairs": [[2, 1.0]]},
        {"size": 2, "pairs": [[2, "1"]]},
    ],
)
def test_relation_json_needs_json_integers(data):
    with pytest.raises(ValueError, match="JSON integer"):
        Relation.from_json_dict(data)


def test_relation_json_size_is_capped_before_allocating():
    cap = JSON_SIZE_CAP
    assert Relation.from_json_dict({"size": cap, "pairs": [[cap, 1]]}).size == cap
    for size in (cap + 1, 10**12):
        with pytest.raises(ValueError, match=f"capped at {cap}"):
            Relation.from_json_dict({"size": size, "pairs": []})


def test_row_bit_at_index_size_is_rejected_at_large_size():
    n = 10**5
    rows = (0,) * (n - 1)
    assert Relation(n, rows + (1 << (n - 1),)).contains(n, n)
    with pytest.raises(ValueError, match="exceeds alphabet size"):
        Relation(n, rows + (1 << n,))
    with pytest.raises(ValueError, match="exceeds alphabet size"):
        Relation(n, rows + (-1,))


def test_bipartition_json_round_trip():
    b = Bipartition(((2, 3), (1,)), (1, 0))
    assert Bipartition.from_json_dict(b.to_json_dict()) == b
    assert b.to_json_dict() == {"blocks": [[2, 3], [1]], "betas": [1, 0]}
    with pytest.raises(ValueError):
        Bipartition.from_json_dict({"blocks": [[1]]})
    for data in (
        {"blocks": [[2, 3], [1]], "betas": [True, 0]},
        {"blocks": [[2, 3], [1]], "betas": [1.0, 0]},
        {"blocks": [[2, 3], [1.0]], "betas": [1, 0]},
        {"blocks": [[2, True], [1]], "betas": [1, 0]},
    ):
        with pytest.raises(ValueError, match="JSON integer"):
            Bipartition.from_json_dict(data)


def _ordered_set_partitions(items):
    if not items:
        yield ()
        return
    items = list(items)
    first = items[0]
    for k in range(1, len(items) + 1):
        for rest in itertools.combinations(items[1:], k - 1):
            block = tuple(sorted((first,) + rest))
            remaining = [x for x in items if x not in block]
            for tail in _ordered_set_partitions(remaining):
                for pos in range(len(tail) + 1):
                    yield tail[:pos] + (block,) + tail[pos:]


def test_bipartitional_matches_blockwise_definition():
    # oracle: all ordered set partitions with all beta vectors, r <= 3
    for r in range(1, 4):
        from_blocks = set()
        for blocks in _ordered_set_partitions(range(1, r + 1)):
            if not blocks:
                continue
            for betas in itertools.product((0, 1), repeat=len(blocks)):
                from_blocks.add(relation_from_bipartition(Bipartition(blocks, betas)))
        for u in enumerate_relations(r):
            assert is_bipartitional(u) == (u in from_blocks)


def test_bipartitional_iff_self_extension():
    for r in range(1, 4):
        for u in enumerate_relations(r):
            assert is_bipartitional(u) == is_kappa_extension(u, u)


def test_bipartitional_iff_self_extension_r4():
    count = 0
    for u in enumerate_relations(4):
        bip = is_bipartitional(u)
        count += bip
        assert bip == is_kappa_extension(u, u)
    # ordered set partitions of [4] with beta bits: 1*2 + 14*4 + 36*8 + 24*16
    assert count == 2 + 56 + 288 + 384


def test_kappa_extensibility_criteria_agree():
    for r in range(1, 4):
        rels = list(enumerate_relations(r))
        for u in rels:
            by_quadruple = is_kappa_extensible(u)
            by_closure = is_kappa_extension(kappa_closure(u), u)
            by_witness = any(is_kappa_extension(s, u) for s in rels)
            assert by_quadruple == by_closure == by_witness


def test_closure_is_smallest_and_bipartitional():
    for r in range(1, 4):
        rels = list(enumerate_relations(r))
        for u in rels:
            if not is_kappa_extensible(u):
                continue
            closure = kappa_closure(u)
            assert is_bipartitional(closure)
            for s in rels:
                if is_kappa_extension(s, u):
                    assert closure.issubset(s)


def test_bipartition_round_trip():
    for r in range(1, 5):
        for u in enumerate_relations(r):
            if is_bipartitional(u):
                assert relation_from_bipartition(extract_bipartition(u)) == u


def test_gmap_round_trip_exhaustive():
    # over every total order S and every U it kappa-extends, r <= 3
    for r in range(1, 4):
        for s_mask in range(1 << (r * r)):
            s = Relation.from_mask(r, s_mask)
            if not is_total_order(s):
                continue
            matching = [
                u
                for u in enumerate_relations(r)
                if is_kappa_extension(s, u)
            ]
            assert len(matching) == math.factorial(r)
            for u in matching:
                assert gmap_to_relation(relation_to_gmap(u, s)) == u


def test_total_orders_match_the_total_order_filter():
    for r in (1, 2, 3):
        orders = [s for s in enumerate_relations(r) if is_total_order(s)]
        assert total_orders(r) == orders
    orders = total_orders(4)
    assert len(orders) == 24 and all(map(is_total_order, orders))
    assert [s.mask for s in orders] == sorted({s.mask for s in orders})


def _rows_relation(r, has):
    """The relation of the pairs (x, y) with has(x, y), one bit at a time."""
    rows = [0] * r
    for x in range(1, r + 1):
        for y in range(1, r + 1):
            if has(x, y):
                rows[x - 1] |= 1 << (y - 1)
    return Relation(r, tuple(rows))


def test_pair_builders_match_row_loops():
    for r in range(1, 5):
        for ranks in itertools.permutations(range(1, r + 1)):
            expected = _rows_relation(r, lambda x, y: ranks[x - 1] > ranks[y - 1])
            assert order_from_ranks(ranks) == expected
    for r in range(1, 4):
        for m in all_gmaps(r):
            expected = _rows_relation(r, lambda x, y: m.f[x - 1] >= m.g[m.f[y - 1] - 1])
            assert gmap_to_relation(m) == expected
        for blocks in _ordered_set_partitions(range(1, r + 1)):
            block_of = {x: i for i, block in enumerate(blocks) for x in block}
            for betas in itertools.product((0, 1), repeat=len(blocks)):
                expected = _rows_relation(
                    r,
                    lambda x, y: block_of[x] < block_of[y]
                    or (block_of[x] == block_of[y] and betas[block_of[x]] == 1),
                )
                assert relation_from_bipartition(Bipartition(blocks, betas)) == expected


def test_gmap_relation_always_extended_by_rank_order():
    for r in range(1, 5):
        for m in all_gmaps(r):
            u = gmap_to_relation(m)
            s_f = order_from_ranks(m.f)
            assert is_total_order(s_f)
            assert is_kappa_extension(s_f, u)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=6), st.randoms())
def test_gmap_round_trip_random(r, rng):
    f = tuple(rng.sample(range(1, r + 1), r))
    g = tuple(
        rng.choice(list(range(b + 1, r + 1)) + [INF]) for b in range(1, r + 1)
    )
    m = GMap(f, g)
    u = gmap_to_relation(m)
    back = relation_to_gmap(u, order_from_ranks(f))
    assert gmap_to_relation(back) == u
    assert back.g == g  # g is uniquely determined by U and the order


def _extensible_by_quadruple(u):
    """The defining scan: transitive, and no x U y, not z U y, z U t, not x U t."""
    if not is_transitive(u):
        return False
    letters = range(1, u.size + 1)
    for x in letters:
        for y in letters:
            if not u.contains(x, y):
                continue
            for z in letters:
                if u.contains(z, y):
                    continue
                for t in letters:
                    if u.contains(z, t) and not u.contains(x, t):
                        return False
    return True


def test_kappa_extensible_matches_quadruple_scan():
    for r in range(1, 4):
        for u in enumerate_relations(r):
            assert is_kappa_extensible(u) == _extensible_by_quadruple(u)
    rng = random.Random(44)
    extensible = 0
    for _ in range(2000):
        u = Relation.from_mask(4, rng.getrandbits(16))
        verdict = is_kappa_extensible(u)
        assert verdict == _extensible_by_quadruple(u)
        extensible += verdict
    assert extensible > 0
