"""Golden data for the built-in two-space demonstration, frozen from a hand
computation and re-derivable through the oracles; the writers of the
covering and topology documents the tests feed to the command line; the
Alexandrov star spaces of core and boundary points; seeded weak covering
tables generated from atom slices, and the zero-sided weak-only table
(the first weak-only table of scripts/census.py); and the covering a frame
puts on the powerset of its worlds.

Point encoding: label list order gives the bit index, so in the seven-point
space the label "1" is bit 0, ..., "7" is bit 6; in the six-point companion
space "2" is bit 0, ..., "7" is bit 5.
"""

from __future__ import annotations

import random

import numpy as np

from mereotop import CoveringRelation, FiniteBooleanAlgebra, PointSet, covering_from_slices, generate_topology
from mereotop.frames import covering_table

X_DOC = {
    "universe": ["1", "2", "3", "4", "5", "6", "7"],
    "subbasis": [["1", "2", "3"], ["2", "5", "7"], ["3", "6", "7"]],
}
XP_DOC = {
    "universe": ["2", "3", "4", "5", "6", "7"],
    "subbasis": [["2", "3"], ["2", "5", "7"], ["3", "6", "7"]],
}

X_N = 7
X_SUBBASIS_MASKS = [0b0000111, 0b1010010, 0b1100100]
X_OPEN_COUNT = 19
# regular closed carrier, ascending by mask: {}, {1,2,4,5}, {1,3,4,6},
# {1,2,3,4,5,6}, {4,5,6,7}, {1,2,4,5,6,7}, {1,3,4,5,6,7}, X
X_RC_MASKS = [0, 27, 45, 63, 120, 123, 125, 127]
X_RC_ATOM_MASKS = [27, 45, 120]
X_REGION_MASK = 63  # {1,2,3,4,5,6}: internally connected

XP_N = 6
XP_SUBBASIS_MASKS = [0b000011, 0b101001, 0b110010]
XP_OPEN_COUNT = 14
# {}, {2,4,5}, {3,4,6}, {2,3,4,5,6}, {4,5,6,7}, {2,4,5,6,7}, {3,4,5,6,7}, X'
XP_RC_MASKS = [0, 13, 22, 31, 60, 61, 62, 63]
XP_RC_ATOM_MASKS = [13, 22, 60]
XP_REGION_MASK = 31  # {2,3,4,5,6}: not internally connected

WORLD_COUNT = 12  # both equivalence-frame constructions over the 7-point space


def covering_document(covering) -> dict:
    """The {"atoms": k, "covering": [[a, b, d], ...]} document of a covering."""
    return {
        "atoms": covering.algebra.atom_count,
        "covering": [list(t) for t in covering.true_triples()],
    }


def zero_sided_covering(atom_count: int) -> CoveringRelation:
    """(a, b) |- f iff a = 0 or b = 0: weak but not full."""
    n = 1 << atom_count
    table = np.zeros((n, n, n), dtype=bool)
    table[0] = table[:, 0] = True
    return CoveringRelation(FiniteBooleanAlgebra(atom_count), table)


def topology_document(labeled) -> dict:
    """The {"universe", "subbasis"} document of a labelled topology."""
    return {
        "universe": list(labeled.labels),
        "subbasis": [labeled.labels_of(s) for s in labeled.subbasis],
    }


def build(n: int, masks) -> "FiniteTopology":
    return generate_topology(n, [PointSet(n, m) for m in masks])


def star_space(k: int, boundary) -> "FiniteTopology":
    """The Alexandrov space of k open core points, one per atom, and one
    boundary point per atom-set mask in ``boundary``, whose least open set
    is itself and the cores of its mask."""
    masks = [1 << i for i in range(k)] + [1 << (k + j) | cores for j, cores in enumerate(boundary)]
    return build(k + len(boundary), masks)


def example_topology():
    return build(X_N, X_SUBBASIS_MASKS)


def example_topology_prime():
    return build(XP_N, XP_SUBBASIS_MASKS)


def slice_generated_covering(k: int, flips: int, rng: random.Random) -> CoveringRelation:
    """The table generated by random atom slices R_f, each the union of its
    own random pairs and those of every f' inside f: (a, b) |- f iff
    R_f(p, q) for all atoms p in a and q in b.  It satisfies the weak
    axioms and, unless the slices happen to be those of a space, fails the
    full ones; ``flips`` seeded flips then break it further."""
    n = 1 << k
    own = [{(p, q) for p in range(k) for q in range(k) if rng.random() < 0.3} for _ in range(n)]
    slices = np.zeros((n, k, k), dtype=bool)
    for f in range(n):
        for p, q in set().union(*(own[g] for g in range(n) if g & ~f == 0)):
            slices[f, p, q] = True
    table = covering_from_slices(k, slices).table.copy()
    for _ in range(flips):
        a, b, d = (rng.randrange(n) for _ in range(3))
        table[a, b, d] = not table[a, b, d]
    return CoveringRelation(FiniteBooleanAlgebra(k), table)


def powerset_covering(frame) -> CoveringRelation:
    """The frame's covering over every subset of its worlds, as a covering
    of the powerset algebra, whose atoms are the single worlds."""
    w = frame.world_count
    return CoveringRelation(FiniteBooleanAlgebra(w), covering_table(frame, range(1 << w)))
