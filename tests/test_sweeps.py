"""The isomorphism-reduced source sweeps: pinned counts and digests of the
enumerated classes, and a brute-force isomorphism reference that checks
them at sizes where trying every element permutation is cheap."""

import hashlib
from itertools import combinations, permutations

import pytest

from spillkit.errors import SizeCapError
from spillkit.sweeps import (
    cover_sources,
    family_classes,
    graph_classes,
    graphs_upto,
    triple_family_classes,
    x3c_sources,
)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------
# Pinned enumerations: the classes, their representatives and their order
# ---------------------------------------------------------------------

def test_triple_family_counts_and_digest():
    assert [len(triple_family_classes(n, 5)) for n in (3, 6, 9)] == [1, 75, 424]
    fams = [tuple(tuple(sorted(t)) for t in fam)
            for n in (3, 6, 9) for fam in triple_family_classes(n, 5)]
    assert _digest(fams) == "d279723e19929ade"
    assert len(list(x3c_sources(9, 5))) == 500


def test_set_family_counts_and_digest():
    assert [len(family_classes(g, 5)) for g in range(1, 7)] == [
        1, 5, 35, 340, 2813, 18838]
    fams = [fam for g in range(1, 7) for fam in family_classes(g, 5)]
    assert _digest(fams) == "008b1940ede9fb69"
    assert len(list(cover_sources(6, 5))) == 106_293


def test_graph_counts_and_digest():
    assert [len(graph_classes(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    assert _digest(list(graphs_upto(6))) == "fc3c51dedc33e33e"


# ---------------------------------------------------------------------
# Brute-force reference: canonical form = least image over all element
# permutations, computed one family at a time
# ---------------------------------------------------------------------

def _canon_triples(n, fam):
    return min(tuple(sorted(tuple(sorted(p[e] for e in t)) for t in fam))
               for p in permutations(range(n)))


def _canon_sets(g, fam):
    def image(p, m):
        return sum(1 << p[b] for b in range(g) if m >> b & 1)
    return min(tuple(sorted(image(p, m) for m in fam))
               for p in permutations(range(g)))


def _canon_graph(n, edges):
    return min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
               for p in permutations(range(n)))


def _check_classes(levels, universe, canon):
    """`levels[s]` lists the classes of size s + 1 (a size-0 level holding
    the empty family is implied). Each level must be pairwise
    non-isomorphic, and every extension of a class below by one member of
    `universe` must be isomorphic to a class of the level."""
    below = [()]
    for level in levels:
        keys = {canon(fam) for fam in level}
        assert len(keys) == len(level), "two classes are isomorphic"
        for fam in below:
            for member in universe:
                if member not in fam:
                    assert canon(fam + (member,)) in keys, (fam, member)
        below = level


def _by_size(fams):
    levels = {}
    for fam in fams:
        levels.setdefault(len(fam), []).append(fam)
    assert sorted(levels) == list(range(1, len(levels) + 1))
    return [levels[s] for s in sorted(levels)]


def test_triple_families_match_the_reference():
    n = 6
    triples = [frozenset(t) for t in combinations(range(n), 3)]
    levels = _by_size(triple_family_classes(n, 4))
    assert len(levels) == 4
    _check_classes(levels, triples, lambda fam: _canon_triples(n, fam))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_set_families_match_the_reference(g):
    fams = family_classes(g, 5)
    _check_classes(_by_size(fams), range(1, 1 << g),
                   lambda fam: _canon_sets(g, fam))
    # each representative is its class's least sorted member list
    assert all(fam == _canon_sets(g, fam) for fam in fams)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graphs_match_the_reference(n):
    slots = list(combinations(range(n), 2))
    every = {_canon_graph(n, edges)
             for k in range(len(slots) + 1) for edges in combinations(slots, k)}
    reps = graph_classes(n)
    keys = [_canon_graph(n, edges) for edges in reps]
    assert len(set(keys)) == len(keys) and set(keys) == every
    # each representative is the least edge-slot mask of its class
    index = {e: i for i, e in enumerate(slots)}
    mask = [sum(1 << index[e] for e in edges) for edges in reps]
    assert mask == sorted(mask)
    for edges, m in zip(reps, mask):
        assert all(m <= sum(1 << index[tuple(sorted((p[a], p[b])))]
                            for a, b in edges)
                   for p in permutations(range(n)))


# ---------------------------------------------------------------------
# Sizes the bitset encodings cannot hold
# ---------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: family_classes(7, 1),
    lambda: graph_classes(8),
    lambda: triple_family_classes(13, 5),
], ids=["ground-7", "graph-8", "triples-65-bits"])
def test_sizes_beyond_the_encoding_are_refused(call):
    with pytest.raises(SizeCapError):
        call()
