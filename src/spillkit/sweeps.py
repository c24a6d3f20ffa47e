"""Isomorphism-reduced enumeration of small source instances.

The acceptance sweeps quantify over ALL sources up to a size bound;
enumerating one representative per isomorphism class keeps that
exhaustive claim tractable. Every class is found through an exact
canonical key on integer bitsets, computed with numpy:

- A graph is a mask over its edge slots, and a set family is a uint64
  with bit 63 - m set for each member mask m. One helper,
  `_permuted_extreme`, reduces both over all label permutations, moving
  bits through per-byte image tables. A graph's key is the least mask in
  its orbit, a family's the greatest integer. Of two families of one
  size, the lexicographically smaller sorted member list holds the
  lowest member of their symmetric difference, which is the highest bit
  in this layout. So a family's key is its orbit's lexicographically
  smallest sorted member list, the representative this module returns.
- A family of 3-element subsets is a 0/1 incidence matrix. Its key is
  the least, over the orderings of its triples, of the sorted tuple of
  per-element membership patterns, isolated elements included; that
  identifies the matrix up to row and column permutations. A class is
  represented by its first candidate.

Families grow one member at a time from the representatives of the
level below, each representative extended by every absent member in
ascending order, and the first candidate of each key is kept. The lists
therefore come out in one fixed order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import SizeCapError
from .model import bits
from .reductions import CoverInstance, GraphInstance, X3CInstance

MAX_GROUND = 6  # member masks 1..63 fill the low 63 bits of a uint64
MAX_VERTICES = 7  # every mask over 21 edge slots: 16 MiB of uint64 keys


def _permuted_extreme(keys, images, reduce):
    """`reduce` (np.minimum or np.maximum) of every uint64 key over the bit
    permutations listed in `images`: row p moves bit i to images[p, i].
    Each permutation goes through one 256-entry image table per byte the
    keys use; only one permutation's tables exist at a time."""
    used = int(np.bitwise_or.reduce(keys))
    live = [k for k in range(8) if used >> 8 * k & 255]
    cols = [((keys >> np.uint64(8 * k)) & np.uint64(255)).astype(np.intp)
            for k in live]
    images = np.pad(images, ((0, 0), (0, 64 - images.shape[1])))
    moved = np.uint64(1) << images.reshape(-1, 8, 8)[:, live].astype(np.uint64)
    tables = np.zeros((len(live), 256), dtype=np.uint64)
    best = None
    for bit_images in moved:  # (byte, bit) -> the moved bit
        for j in range(8):
            np.bitwise_or(tables[:, :1 << j], bit_images[:, j:j + 1],
                          out=tables[:, 1 << j:2 << j])
        out = np.zeros_like(keys)
        for table, col in zip(tables, cols):
            out |= table[col]
        best = out if best is None else reduce(best, out, out=best)
    return best


def _first_of_each(keys):
    """Indices of the first occurrence of each distinct key, ascending."""
    return np.sort(np.unique(keys, return_index=True)[1])


# ---------------------------------------------------------------------
# Graphs up to isomorphism
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def graph_classes(n):
    """Canonical edge-index-pair tuples of all n-vertex graphs."""
    if n > MAX_VERTICES:
        raise SizeCapError(n, MAX_VERTICES, "vertices")
    slots = list(combinations(range(n), 2))
    slot_of = {e: i for i, e in enumerate(slots)}
    images = np.array([[slot_of[tuple(sorted((p[a], p[b])))] for a, b in slots]
                       for p in permutations(range(n))], dtype=np.int64)
    masks = np.arange(1 << len(slots), dtype=np.uint64)
    canon = _permuted_extreme(masks, images, np.minimum)
    return [tuple(slots[i] for i in bits(int(mask)))
            for mask in np.nonzero(canon == masks)[0]]


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
    if g > MAX_GROUND:
        raise SizeCapError(g, MAX_GROUND, "ground elements")
    member = np.uint64(1) << np.arange(62, 63 - (1 << g), -1, dtype=np.uint64)
    # the image of mask m under each permutation, then of bit 63 - m
    moved = (np.arange(64)[:, None] >> np.arange(g) & 1) @ (
        1 << np.array(list(permutations(range(g)))).T)
    images = 63 - moved.T[:, ::-1]
    out = []
    reps = np.zeros(1, dtype=np.uint64)  # the empty family
    for _ in range(family_max):
        cand = reps[:, None] | member[None, :]
        cand = cand[cand != reps[:, None]]  # row-major: rep, then member
        if not len(cand):
            break
        cand = cand[_first_of_each(cand)]
        canon = _permuted_extreme(cand, images, np.maximum)
        reps = canon[_first_of_each(canon)]
        out.extend(tuple(sorted(63 - b for b in bits(int(key)))) for key in reps)
    return out


def cover_sources(ground_max, family_max):
    """CoverInstances for every class and every bound K."""
    for g in range(1, ground_max + 1):
        names = tuple(f"b{i}" for i in range(g))
        for fam in family_classes(g, family_max):
            members = tuple(frozenset(names[b] for b in range(g) if m >> b & 1)
                            for m in fam)
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
