"""Fixtures shared by the test modules."""

import pytest

from majinv import is_kappa_extension
from majinv.mahonian import enumerate_relations


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
