"""Index universes and projective families refuse every attribute assignment."""

import pytest

from copulagrid import (
    IndexUniverse,
    comonotone_family,
    family_member,
    fdd_distance,
    independence_family,
)


def test_universe_slots_cannot_be_set_or_deleted():
    for u in (IndexUniverse.finite([0, 1, 2]), IndexUniverse.countable()):
        for name in ("kind", "labels"):
            with pytest.raises(AttributeError):
                setattr(u, name, (0,))
            with pytest.raises(AttributeError):
                delattr(u, name)
        with pytest.raises(AttributeError):
            u.extra = 1
        assert not hasattr(u, "extra")
    assert IndexUniverse.finite([0, 1, 2]).labels == (0, 1, 2)


def test_family_slots_cannot_be_set_or_deleted():
    f = independence_family(IndexUniverse.finite([0, 1]), 3)
    member = family_member(f, (0, 1))
    for name in ("universe", "kind", "rule", "_cache", "_lock", "_in_progress"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    with pytest.raises(AttributeError):
        f.extra = 1
    assert not hasattr(f, "extra")
    assert family_member(f, (0, 1)) is member


def test_refused_assignment_leaves_the_distance_unchanged():
    u = IndexUniverse.finite([0, 1, 2])
    before = fdd_distance(independence_family(u, 4), comonotone_family(u, 4))
    assert before == 0.010388924841231387
    with pytest.raises(AttributeError):
        u.labels = (0,)
    assert u.labels == (0, 1, 2)
    assert fdd_distance(independence_family(u, 4), comonotone_family(u, 4)) == before
