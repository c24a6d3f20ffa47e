"""Isomorphism-reduced enumeration of small source instances.

The acceptance sweeps quantify over ALL sources up to a size bound;
enumerating one representative per isomorphism class keeps that
exhaustive claim tractable. Graphs (families of 2-element members) and
set families grow one member at a time: each level extends the
representatives of the level below by every absent member in ascending
order and keeps the first candidate of each class. Keys have one bit
per member, and a class is found in two steps:

- Its grouping key. An element's signature counts, per member size, the
  members of that size holding it (a sum of 8^(|m| - 1)). The key is the
  extreme image of a candidate F over the relabelings that sort its
  elements by signature. It is exact: for any relabeling t, those that
  sort tF are those that sort F composed with t^-1, so F and tF reach
  the same images; and equal keys are a shared image.
- Its orbit extreme over all n! relabelings, computed on its first
  candidate only: the representative. A set family sets bit 63 - m for
  member mask m and takes its greatest image; of two families of one
  size, the lexicographically smaller sorted member list holds the
  lowest member of their symmetric difference, the highest bit. A graph
  sets bit i for edge slot i and takes its least image, the edge mask
  its classes are listed by.

A family of 3-element subsets keys on the least, over the orderings of
its triples, of its sorted per-element membership patterns, isolated
elements included: its incidence matrix up to row and column
permutations. A class is represented by its first candidate.
`cover_sources` shares one frozenset per ground size and member mask.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import SizeCapError, SpillkitError
from .reductions import CoverInstance, GraphInstance, X3CInstance

MAX_GROUND = 6  # member masks 1..63 fill the low 63 bits of a uint64
MAX_VERTICES = 7  # 5,040 relabelings of 21 edge slots
CHUNK = 1 << 18  # entries (2 MiB of uint64) in one temporary key array
GROUPED = CHUNK >> 4  # candidates whose grouping keys are computed at once


def _refuse_negative(**sizes):
    for name, size in sizes.items():
        if size < 0:
            raise SpillkitError(f"{name} must be >= 0, got {size}")


def _first_of_each(keys):
    """Indices of the first occurrence of each distinct key, ascending."""
    return np.sort(np.unique(keys, return_index=True)[1])


class _Relabelings:
    """The n! relabelings of n elements (row p of `perms` sends e to
    perms[p, e]) acting on members: member u is the element mask masks[u]
    with key bit pos[u], becomes image[u, p] with key bit bit[u, p], and
    adds weight[u] to its elements' signatures. `row` finds the row of a
    permutation from its digits in base n."""

    def __init__(self, n, masks, pos, pick):
        self.perms = np.array(list(permutations(range(n))), dtype=np.intp)
        elems = masks[:, None] >> np.arange(n) & 1
        index = np.zeros(1 << n, dtype=np.uint8)  # at most 63 members
        index[masks] = np.arange(len(masks))
        self.image = index[elems @ (1 << self.perms.T)]
        self.bit = np.uint64(1) << pos[self.image].astype(np.uint64)
        self.weight = elems << 3 * (elems.sum(1, keepdims=True) - 1)
        self.digits = n ** np.arange(n)
        self.row = np.zeros(n ** n, dtype=np.intp)
        self.row[self.perms @ self.digits] = np.arange(len(self.perms))
        self.pick = pick

    def extreme(self, members, cols=slice(None)):
        """For each row of `members` (member indices), the relabeling among
        `cols` whose image key is picked, and that key."""
        bit = self.bit[:, cols]
        best = np.empty(len(members), dtype=np.intp)
        step = max(1, CHUNK // (bit.shape[1] * members.shape[1]))
        for lo in range(0, len(members), step):
            img = np.bitwise_or.reduce(bit[members[lo:lo + step]], axis=1)
            best[lo:lo + step] = self.pick(img, axis=1)
        return best, np.bitwise_or.reduce(bit[members, best[:, None]], axis=1)

    def grouping_keys(self, members):
        """Each family's extreme image over the relabelings that sort its
        elements by signature: a complete isomorphism invariant."""
        sig = self.weight[members].sum(axis=1)
        rank = np.argsort(np.argsort(sig, axis=1), axis=1)  # a sorting relabeling
        sorting = self.row[rank @ self.digits]
        sorted_members = self.image[members, sorting[:, None]]
        blocks = np.cumsum(np.diff(np.sort(sig, axis=1), prepend=-1) > 0, 1) - 1
        patterns = blocks @ self.digits
        keys = np.empty(len(members), dtype=np.uint64)
        for pattern in np.unique(patterns):
            rows = np.flatnonzero(patterns == pattern)
            block = blocks[rows[0]]  # elements of one signature share a block
            within = np.flatnonzero((block[self.perms] == block).all(axis=1))
            keys[rows] = self.extreme(sorted_members[rows], within)[1]
        return keys

    def classes(self, size_max):
        """Per family size 1..size_max, one row of sorted member indices per
        class, the orbit's picked image, and that image's key."""
        levels = []
        reps = np.zeros((1, 0), dtype=np.uint8)  # the empty family
        for _ in range(min(size_max, len(self.bit))):
            absent = (reps[:, :, None] != np.arange(len(self.bit))).all(axis=1)
            rep, new = np.nonzero(absent)  # row-major: rep, then member
            cand = np.column_stack([reps[rep], new.astype(np.uint8)])
            keys = np.concatenate([self.grouping_keys(cand[lo:lo + GROUPED])
                                   for lo in range(0, len(cand), GROUPED)])
            cand = cand[_first_of_each(keys)]
            best, keys = self.extreme(cand)
            reps = np.sort(self.image[cand, best[:, None]], axis=1)
            levels.append((reps, keys))
        return levels


# ---------------------------------------------------------------------
# Graphs up to isomorphism
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def graph_classes(n):
    """Canonical edge-index-pair tuples of all n-vertex graphs."""
    _refuse_negative(n=n)
    if n > MAX_VERTICES:
        raise SizeCapError(n, MAX_VERTICES, "vertices")
    slots = list(combinations(range(n), 2))
    masks = np.array([1 << a | 1 << b for a, b in slots], dtype=np.intp)
    rel = _Relabelings(n, masks, np.arange(len(slots)), np.argmin)
    found = sorted((key, rep) for reps, keys in rel.classes(len(slots))
                   for rep, key in zip(reps.tolist(), keys.tolist()))
    return [()] + [tuple(slots[i] for i in rep) for _, rep in found]


def graphs_upto(n_max):
    """(n, edges) for one representative of every graph with 1..n_max vertices."""
    for n in range(1, n_max + 1):
        for edges in graph_classes(n):
            yield n, edges


def graph_instance(n, edges, bound):
    names = tuple(f"u{i}" for i in range(n))
    return GraphInstance(names, tuple((names[a], names[b]) for a, b in edges),
                         bound)


# ---------------------------------------------------------------------
# Set families (minimum cover sources) up to isomorphism
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def family_classes(g, family_max):
    """Canonical families of distinct nonempty subsets of a g-element ground
    set, one representative per isomorphism class, sizes 1..family_max."""
    _refuse_negative(g=g, family_max=family_max)
    if g > MAX_GROUND:
        raise SizeCapError(g, MAX_GROUND, "ground elements")
    masks = np.arange(1, 1 << g)
    levels = _Relabelings(g, masks, 63 - masks, np.argmax).classes(family_max)
    return [tuple(rep) for reps, _ in levels for rep in (reps + 1).tolist()]


def cover_sources(ground_max, family_max):
    """CoverInstances for every class and every bound K."""
    for g in range(1, ground_max + 1):
        names = tuple(f"b{i}" for i in range(g))
        sets = [frozenset(names[b] for b in range(g) if m >> b & 1)
                for m in range(1 << g)]
        for fam in family_classes(g, family_max):
            members = tuple(sets[m] for m in fam)
            for bound in range(1, len(members) + 1):
                yield CoverInstance(names, members, bound)


# ---------------------------------------------------------------------
# Triple families (X3C sources) up to isomorphism
# ---------------------------------------------------------------------

def _incidence_key(fams, tmask, n_elems):
    """Canonical key of each row of `fams` (triple indices): the least,
    over orderings of the triples, of the sorted per-element membership
    patterns, packed into a uint64 with `s` bits per element."""
    s = fams.shape[1]
    inc = (tmask[fams][:, None, :] >> np.arange(n_elems)[:, None]) & 1
    shifts = (s * np.arange(n_elems)[::-1]).astype(np.uint64)
    best = None
    for order in permutations(range(s)):
        patterns = inc @ (1 << np.array(order))  # (fam, element)
        patterns.sort(axis=1)
        key = (patterns.astype(np.uint64) << shifts).sum(axis=1)
        best = key if best is None else np.minimum(best, key, out=best)
    return best


@lru_cache(maxsize=None)
def triple_family_classes(n_elems, family_max):
    """Canonical families of distinct 3-subsets of n_elems elements."""
    _refuse_negative(n_elems=n_elems, family_max=family_max)
    if n_elems * family_max > 64:
        raise SizeCapError(n_elems * family_max, 64, "incidence key bits")
    triples = list(combinations(range(n_elems), 3))
    tmask = np.array([sum(1 << e for e in t) for t in triples], dtype=np.int64)
    out = []
    reps = [()]
    for _ in range(family_max):
        cand = [tuple(sorted(rep + (t,))) for rep in reps
                for t in range(len(triples)) if t not in rep]
        if not cand:
            break
        keys = _incidence_key(np.array(cand), tmask, n_elems)
        reps = [cand[i] for i in _first_of_each(keys)]
        out.extend(tuple(frozenset(triples[t]) for t in rep) for rep in reps)
    return out


def x3c_sources(elems_max, family_max):
    """X3CInstances, exhaustive over isomorphism classes."""
    for n_elems in range(3, elems_max + 1, 3):
        names = tuple(f"e{i}" for i in range(n_elems))
        for fam in triple_family_classes(n_elems, family_max):
            yield X3CInstance(
                names, tuple(frozenset(names[e] for e in t) for t in fam))
