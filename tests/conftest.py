"""Fixtures and test oracles shared by the test modules."""

import itertools

import pytest

from majinv import INF, GMap, is_kappa_extension
from majinv import mahonian
from majinv.mahonian import enumerate_relations

# the least --size that each verify suite reading one refuses, by the work it
# would do: 2**(r*r) relations past the word budget of 2**20 (closure,
# product-formula, psi), a 4**(r*r)-byte pass array past the byte budget of
# 2**30 (the pair sweeps), the pairs of (r!)**2 statistics past the word budget
# (distinctness), and a statistic alphabet past 256 letters (macmahon)
FIRST_REFUSED_SIZE = {
    "closure": 5,
    "product-formula": 5,
    "psi": 5,
    "theorem-majinv": 4,
    "classification": 4,
    "distinctness": 5,
    "macmahon": 257,
}


def kappa_extension_by_definition(r, u, s):
    """S kappa-extends U: U lies inside S, and x U y with not(z U y) gives
    x S z and not(z S x).  Relations are masks with bit (x-1)*r + (y-1)."""

    def has(m, x, y):
        return (m >> (x * r + y)) & 1

    letters = range(r)
    return u & ~s == 0 and all(
        has(s, x, z) and not has(s, z, x)
        for x in letters
        for y in letters
        for z in letters
        if has(u, x, y) and not has(u, z, y)
    )


def all_gmaps(r):
    """Every (f, g) map over [r]: f a permutation, g(b) a letter above b or
    INF."""
    choices = [list(range(b + 1, r + 1)) + [INF] for b in range(1, r + 1)]
    for f in itertools.permutations(range(1, r + 1)):
        for g in itertools.product(*choices):
            yield GMap(tuple(f), tuple(g))


@pytest.fixture(scope="session")
def kappa_extension_pairs():
    """``kappa_extension_pairs(r)``: every pair (U, S) of relations on [r]
    with S a kappa-extension of U, U then S in mask order.  Each r is
    scanned once per session; at r = 3 the scan of all 512 x 512 pairs
    takes seconds, and several tests sample from it."""
    scanned = {}

    def pairs(r):
        if r not in scanned:
            rels = list(enumerate_relations(r))
            scanned[r] = tuple(
                (u, s) for u in rels for s in rels if is_kappa_extension(s, u)
            )
        return scanned[r]

    return pairs


@pytest.fixture()
def words_read(monkeypatch):
    """The words verify_distinctness reads from words_of_length, in order."""
    read = []
    listed = mahonian.words_of_length

    def spy(r, n):
        for word in listed(r, n):
            read.append(word)
            yield word

    monkeypatch.setattr(mahonian, "words_of_length", spy)
    return read
