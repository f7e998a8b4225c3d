"""The paper's lemmas about filters, split pullbacks and the regular open
algebra, as executable claims.  No command runs them; the acceptance
battery and the unit tests pin them on exhaustive sweeps of small
instances.

- Over a weak extended contact algebra the left and right sets of a filter
  over a cover d are ideals, and the three ways of saying that two filters
  avoid each other over d agree (``check_filter_separation_equivalence``).
- A frame-side split of the image of a region under the type-2 embedding
  pulls back to two nonzero parts of the region that join to it and are
  covered by its complement (``check_split_pullback``).
- A -> Int(A) maps the regular closed algebra isomorphically onto the
  regular open one, preserving contact (``rc_ro_isomorphism_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

import oracles
from mereotop import (
    CapExceeded,
    CheckResult,
    ContactRelation,
    CoveringRelation,
    Embedding,
    EquivalenceFrame2,
    Filter,
    FiniteTopology,
    PointSet,
    TopologicalEca,
    closure,
    interior,
    rc_algebra,
    rc_contact,
)


def _frame2_covering(frame: EquivalenceFrame2, a: int, b: int, d: int) -> bool:
    """(a, b) covered by d in a type-2 frame, by the oracle's literal loop."""
    return oracles.naive_frame2_covering(frame.classes1, frame.classes2, a, b, d)


# ---------------------------------------------------------------------------
# relative contact, left and right sets, filter separation


def relative_contact(covering: CoveringRelation, g: int) -> ContactRelation:
    """Contact relative to a region g: holds for (a, b) when (a, b) is not
    covered by g."""
    covering.algebra._require(g)
    return ContactRelation(covering.algebra, ~covering.table[:, :, g])


def left_set(covering: CoveringRelation, u: Filter, d: int) -> frozenset[int]:
    """The set of all b covered together with some member of the filter u:
    {b : exists a in u with (a, b) |- d}.  Over a weak extended contact
    algebra this is an ideal (``oracles.is_ideal``)."""
    if u.algebra != covering.algebra:
        raise ValueError("filter and covering live on different algebras")
    covering.algebra._require(d)
    rows = np.fromiter(sorted(u.members), dtype=np.intp)
    return frozenset(np.flatnonzero(covering.table[rows, :, d].any(axis=0)).tolist())


def right_set(covering: CoveringRelation, v: Filter, d: int) -> frozenset[int]:
    """Mirror of :func:`left_set`: {a : exists b in v with (a, b) |- d}."""
    if v.algebra != covering.algebra:
        raise ValueError("filter and covering live on different algebras")
    covering.algebra._require(d)
    cols = np.fromiter(sorted(v.members), dtype=np.intp)
    return frozenset(np.flatnonzero(covering.table[:, cols, d].any(axis=1)).tolist())


@dataclass(frozen=True)
class FilterSeparation:
    """Three ways of saying two filters avoid each other over a cover d."""

    no_covered_pair: bool
    left_set_misses_v: bool
    right_set_misses_u: bool

    @property
    def agree(self) -> bool:
        return self.no_covered_pair == self.left_set_misses_v == self.right_set_misses_u


def check_filter_separation_equivalence(
    covering: CoveringRelation, u: Filter, v: Filter, d: int
) -> FilterSeparation:
    """Evaluate, for filters u and v, the three conditions that are
    equivalent over a weak extended contact algebra: no pair from u x v is
    covered by d; the left set of u misses v; the right set of v misses u."""
    for filt in (u, v):
        if filt.algebra != covering.algebra:
            raise ValueError("filter and covering live on different algebras")
    covering.algebra._require(d)
    table = covering.table
    rows = np.fromiter(sorted(u.members), dtype=np.intp)
    cols = np.fromiter(sorted(v.members), dtype=np.intp)
    no_pair = not table[np.ix_(rows, cols, np.array([d], dtype=np.intp))].any()
    left = frozenset(np.flatnonzero(table[rows, :, d].any(axis=0)).tolist())
    right = frozenset(np.flatnonzero(table[:, cols, d].any(axis=1)).tolist())
    return FilterSeparation(
        no_covered_pair=no_pair,
        left_set_misses_v=not (left & v.members),
        right_set_misses_u=not (u.members & right),
    )


# ---------------------------------------------------------------------------
# split pullback


@dataclass(frozen=True)
class SplitPullback:
    """The algebra-side pair pulled back from a frame-side split, plus the
    three facts checked about it."""

    a1: int
    a2: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def find_admissible_splits(
    embedding: Embedding, a: int, *, cap_size: int = 12
) -> list[tuple[int, int]]:
    """All ordered pairs of nonempty world sets whose union is the image of
    a and that are covered by the image's complement (type-2 frames)."""
    if not isinstance(embedding.frame, EquivalenceFrame2):
        raise TypeError("splits are searched on type-2 frames")
    embedding.source.algebra._require(a)
    s_mask = embedding.image_masks[a]
    if s_mask.bit_count() > cap_size:
        raise CapExceeded(
            f"split search over {s_mask.bit_count()} worlds exceeds cap {cap_size}"
        )
    complement = ((1 << embedding.frame.world_count) - 1) & ~s_mask
    found = []
    b = s_mask
    while b:
        rest = s_mask & ~b
        extra = b
        while True:
            d = rest | extra
            if d and _frame2_covering(embedding.frame, b, d, complement):
                found.append((b, d))
            if extra == 0:
                break
            extra = (extra - 1) & b
        b = (b - 1) & s_mask
    return sorted(found)


def check_split_pullback(
    teca: TopologicalEca, embedding: Embedding, a: int, split1: int, split2: int
) -> SplitPullback:
    """Pull a frame-side split of h'(a) back to algebra elements.

    For each side, collect the atoms occurring in its worlds, take the
    union P of their point sets, and let a_i be the join of every element
    whose point set lies inside P.  Check that both parts are nonzero,
    that they join back to a, and that the pair is covered by the
    complement of a.
    """
    if not isinstance(embedding.frame, EquivalenceFrame2):
        raise TypeError("split pullback is defined on type-2 frames")
    algebra = embedding.source.algebra
    algebra._require(a)
    s_mask = embedding.image_masks[a]
    full_w = (1 << embedding.frame.world_count) - 1
    if not split1 or not split2:
        raise ValueError("both sides of the split must be nonempty")
    if split1 | split2 != s_mask:
        raise ValueError("the split must union to the image of a")
    if not _frame2_covering(embedding.frame, split1, split2, full_w & ~s_mask):
        raise ValueError("the split is not covered by the image's complement")

    a1 = _join_inside(teca, _occurring_union(teca, embedding, split1))
    a2 = _join_inside(teca, _occurring_union(teca, embedding, split2))
    star = algebra.complement(a)
    nonzero = None if (a1 != 0 and a2 != 0) else (a1, a2)
    joins = None if (a1 | a2) == a else (a1, a2)
    covered = None if bool(teca.covering.table[a1, a2, star]) else (a1, a2, star)
    checks = (
        CheckResult("parts-nonzero", nonzero is None, nonzero),
        CheckResult("parts-join-to-whole", joins is None, joins),
        CheckResult("parts-covered-by-complement", covered is None, covered),
    )
    return SplitPullback(a1, a2, checks)


def _occurring_union(teca: TopologicalEca, embedding: Embedding, split: int):
    """Union of the point sets of the atoms occurring in the split's worlds."""
    region = teca.element_sets[0]
    for w in range(embedding.frame.world_count):
        if split >> w & 1:
            region = region | teca.source.atoms[embedding.worlds[w].atom_index]
    return region


def _join_inside(teca: TopologicalEca, region) -> int:
    """Join of every element whose point set lies inside the region."""
    out = 0
    for b in range(teca.covering.algebra.size):
        if teca.element_sets[b].issubset(region):
            out |= b
    return out


# ---------------------------------------------------------------------------
# the regular open mirror


def is_regular_open(topology: FiniteTopology, a: PointSet) -> bool:
    return interior(topology, closure(topology, a)) == a


@dataclass(frozen=True)
class RegularOpenAlgebra:
    """The mirror algebra of regular open sets (Int(Cl(A)) = A).

    Zero is the empty set, complement of A is Int(X minus A), join is
    Int(Cl(A union B)), meet is plain intersection, and contact holds when
    the closures intersect.
    """

    topology: FiniteTopology
    carrier: tuple[PointSet, ...]

    def __post_init__(self) -> None:
        bits = [c.bits for c in self.carrier]
        if bits != sorted(set(bits)):
            raise ValueError("carrier must be distinct and sorted by bit pattern")
        family = set(bits)
        for x in self.carrier:
            if not is_regular_open(self.topology, x):
                raise ValueError(f"{x} is not regular open")
            if self.star(x).bits not in family:
                raise ValueError("carrier not closed under complement")
            for y in self.carrier:
                if self.join(x, y).bits not in family or (x.bits & y.bits) not in family:
                    raise ValueError("carrier not closed under join/meet")

    @cached_property
    def _index(self) -> dict[int, int]:
        return {c.bits: i for i, c in enumerate(self.carrier)}

    def contains(self, a: PointSet) -> bool:
        return a.universe_size == self.topology.universe_size and a.bits in self._index

    def star(self, a: PointSet) -> PointSet:
        return interior(self.topology, a.complement())

    def join(self, a: PointSet, b: PointSet) -> PointSet:
        return interior(self.topology, closure(self.topology, a | b))

    def meet(self, a: PointSet, b: PointSet) -> PointSet:
        return a & b

    def contact(self, a: PointSet, b: PointSet) -> bool:
        return not closure(self.topology, a).isdisjoint(closure(self.topology, b))


def ro_algebra(topology: FiniteTopology) -> RegularOpenAlgebra:
    """The regular open algebra, with carrier {Int(F) : F closed}, taken as
    the interiors of the regular closed sets: for closed F, Int(F) =
    Int(Cl(Int(F))), and Cl(Int(F)) is regular closed.  So the open family
    is never listed."""
    carrier_bits = sorted({interior(topology, a).bits for a in rc_algebra(topology).carrier})
    carrier = tuple(PointSet(topology.universe_size, b) for b in carrier_bits)
    return RegularOpenAlgebra(topology, carrier)


@dataclass(frozen=True)
class IsomorphismCheck:
    """Result of checking that A -> Int(A) maps the regular closed algebra
    isomorphically onto the regular open algebra (inverse B -> Cl(B))."""

    ok: bool
    mapping: tuple[tuple[PointSet, PointSet], ...]
    failures: tuple[str, ...]


def rc_ro_isomorphism_check(topology: FiniteTopology) -> IsomorphismCheck:
    rc = rc_algebra(topology)
    ro = ro_algebra(topology)
    failures: list[str] = []
    image = {a: interior(topology, a) for a in rc.carrier}
    if sorted(b.bits for b in image.values()) != [c.bits for c in ro.carrier]:
        failures.append("not a bijection onto the regular open carrier")
    for a in rc.carrier:
        if closure(topology, image[a]) != a:
            failures.append(f"Cl(Int(.)) does not invert the map at {a.points()}")
            break
    if image[rc.zero] != PointSet.empty(topology.universe_size):
        failures.append("zero not preserved")
    for a in rc.carrier:
        if image[rc.star(a)] != ro.star(image[a]):
            failures.append(f"complement not preserved at {a.points()}")
            break
    for a in rc.carrier:
        for b in rc.carrier:
            if image[rc.join(a, b)] != ro.join(image[a], image[b]):
                failures.append(f"join not preserved at {a.points()}, {b.points()}")
                break
            if rc_contact(rc, a, b) != ro.contact(image[a], image[b]):
                failures.append(f"contact not preserved at {a.points()}, {b.points()}")
                break
        else:
            continue
        break
    mapping = tuple((a, image[a]) for a in rc.carrier)
    return IsomorphismCheck(not failures, mapping, tuple(failures))
