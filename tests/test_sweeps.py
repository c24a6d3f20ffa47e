"""The isomorphism-reduced source sweeps: pinned counts and digests of the
enumerated classes, and a brute-force isomorphism reference that checks
them at sizes where trying every element permutation is cheap."""

import hashlib
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from spillkit.errors import SizeCapError, SpillkitError
from spillkit.sweeps import (
    _Relabelings,
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
# The grouping key: equal exactly on isomorphic families
# ---------------------------------------------------------------------

def _set_relabelings(g):
    masks = np.arange(1, 1 << g)  # member u is mask u + 1
    return _Relabelings(g, masks, 63 - masks, np.argmax)


def _assert_complete(keys, canons):
    """Equal keys exactly where the reference canonical forms agree."""
    assert len(set(zip(keys, canons))) == len(set(keys)) == len(set(canons))


def _candidates(g, below):
    return [fam + (m,) for fam in below for m in range(1, 1 << g)
            if m not in fam]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_set_grouping_key_is_a_complete_invariant(g):
    rel = _set_relabelings(g)
    below = [()]
    for level in _by_size(family_classes(g, 5)):
        cand = _candidates(g, below)
        keys = rel.grouping_keys(np.array(cand, dtype=np.uint8) - 1)
        _assert_complete(keys.tolist(), [_canon_sets(g, fam) for fam in cand])
        below = level


def test_set_grouping_key_on_sampled_pairs_at_ground_5():
    """A seeded sample of each level's candidates, each with a relabeled
    copy: distinct samples are rarely isomorphic, copies always are."""
    g, rng = 5, random.Random(26)
    perms = list(permutations(range(g)))
    rel = _set_relabelings(g)
    below = [()]
    for level in _by_size(family_classes(g, 5)):
        cand = _candidates(g, below)
        sample = rng.sample(cand, min(len(cand), 80))
        for fam in sample[:]:
            p = rng.choice(perms)
            sample.append(tuple(sum(1 << p[b] for b in range(g) if m >> b & 1)
                                for m in fam))
        keys = rel.grouping_keys(np.array(sample, dtype=np.uint8) - 1)
        _assert_complete(keys.tolist(), [_canon_sets(g, fam) for fam in sample])
        below = level


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_graph_grouping_key_is_a_complete_invariant(n):
    slots = list(combinations(range(n), 2))
    masks = np.array([1 << a | 1 << b for a, b in slots])
    rel = _Relabelings(n, masks, np.arange(len(slots)), np.argmin)
    for k in range(1, len(slots) + 1):
        graphs = list(combinations(range(len(slots)), k))
        keys = rel.grouping_keys(np.array(graphs, dtype=np.uint8))
        _assert_complete(keys.tolist(), [
            _canon_graph(n, [slots[i] for i in edges]) for edges in graphs])


# ---------------------------------------------------------------------
# Sizes the bitset encodings cannot hold, and sizes below the range
# ---------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: family_classes(7, 1),
    lambda: graph_classes(8),
    lambda: triple_family_classes(13, 5),
], ids=["ground-7", "graph-8", "triples-65-bits"])
def test_sizes_beyond_the_encoding_are_refused(call):
    with pytest.raises(SizeCapError):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: family_classes(-1, 5), "g"),
    (lambda: family_classes(3, -1), "family_max"),
    (lambda: graph_classes(-1), "n"),
    (lambda: triple_family_classes(-3, 2), "n_elems"),
    (lambda: list(cover_sources(2, -1)), "family_max"),
], ids=["ground", "family", "graph", "triples", "cover"])
def test_negative_sizes_are_refused_by_name(call, name):
    with pytest.raises(SpillkitError, match=f"^{name} must be >= 0"):
        call()


def test_zero_sizes_enumerate_only_what_exists():
    assert family_classes(0, 5) == []  # no nonempty member to take
    assert family_classes(3, 0) == []
    assert triple_family_classes(6, 0) == []
    assert graph_classes(0) == [()]  # the one graph on no vertices
    assert list(cover_sources(0, 5)) == list(graphs_upto(0)) == []
