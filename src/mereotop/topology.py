"""Finite topological spaces and their regular closed / regular open algebras.

Points are 0-based indices into a finite universe; subsets are immutable
bitmask-backed :class:`PointSet` values.  The module computes the least
topology generated by a subbasis, interior/closure, the Boolean algebra of
regular closed sets with its contact, covering and internal-connectedness
relations, the mirror algebra of regular open sets, and the isomorphism
between the two.  JSON documents use human labels; indices never leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Sequence

DEFAULT_BRUTE_FORCE_UNIVERSE_CAP = 10


class CapExceeded(ValueError):
    """An exhaustive operation would exceed its configured size cap."""


class DocumentError(ValueError):
    """A JSON document does not match the expected schema."""


@dataclass(frozen=True, order=True)
class PointSet:
    """A subset of a finite universe of points 0..universe_size-1.

    Equality is extensional; ordering is by (universe_size, bit pattern),
    which gives the canonical deterministic order used everywhere.
    """

    universe_size: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ValueError("universe must be nonempty")
        if not 0 <= self.bits < (1 << self.universe_size):
            raise ValueError(f"bits {self.bits:#x} out of range for universe of size {self.universe_size}")

    @classmethod
    def from_points(cls, universe_size: int, points: Iterable[int]) -> "PointSet":
        bits = 0
        for p in points:
            if not 0 <= p < universe_size:
                raise ValueError(f"point {p} outside universe of size {universe_size}")
            bits |= 1 << p
        return cls(universe_size, bits)

    @classmethod
    def empty(cls, universe_size: int) -> "PointSet":
        return cls(universe_size, 0)

    @classmethod
    def full(cls, universe_size: int) -> "PointSet":
        return cls(universe_size, (1 << universe_size) - 1)

    def points(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.universe_size) if self.bits >> p & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.points())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, point: int) -> bool:
        return 0 <= point < self.universe_size and bool(self.bits >> point & 1)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def _check(self, other: "PointSet") -> None:
        if self.universe_size != other.universe_size:
            raise ValueError("point sets over different universes")

    def union(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.universe_size, self.bits | other.bits)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.universe_size, self.bits & other.bits)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.universe_size, self.bits & ~other.bits)

    def complement(self) -> "PointSet":
        return PointSet(self.universe_size, ((1 << self.universe_size) - 1) & ~self.bits)

    def issubset(self, other: "PointSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: "PointSet") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __invert__ = complement


@dataclass(frozen=True)
class FiniteTopology:
    """A finite topological space: universe size plus the canonical open family.

    ``opens`` is sorted by bit pattern, contains the empty set and the whole
    universe, and is closed under pairwise union and intersection (which on a
    finite universe gives closure under arbitrary unions and finite
    intersections).
    """

    universe_size: int
    opens: tuple[PointSet, ...]

    def __post_init__(self) -> None:
        n = self.universe_size
        if n < 1:
            raise ValueError("universe must be nonempty")
        bits = [o.bits for o in self.opens]
        for o in self.opens:
            if o.universe_size != n:
                raise ValueError("open set over the wrong universe")
        if bits != sorted(set(bits)):
            raise ValueError("opens must be distinct and sorted by bit pattern")
        family = set(bits)
        full = (1 << n) - 1
        if 0 not in family or full not in family:
            raise ValueError("opens must contain the empty set and the universe")
        for u in bits:
            for v in bits:
                if (u | v) not in family or (u & v) not in family:
                    raise ValueError("opens not closed under union/intersection")

    @cached_property
    def _open_bits(self) -> frozenset[int]:
        return frozenset(o.bits for o in self.opens)

    @property
    def universe(self) -> PointSet:
        return PointSet.full(self.universe_size)

    def is_open(self, a: PointSet) -> bool:
        return a.universe_size == self.universe_size and a.bits in self._open_bits

    def is_closed(self, a: PointSet) -> bool:
        return self.is_open(a.complement())

    def closed_sets(self) -> tuple[PointSet, ...]:
        return tuple(sorted(o.complement() for o in self.opens))


def generate_topology(universe_size: int, subbasis: Sequence[PointSet]) -> FiniteTopology:
    """Least topology on the universe containing every subbasis member.

    Seeds with the subbasis plus the empty set and the universe, then closes
    under pairwise intersections to a fixpoint, then pairwise unions to a
    fixpoint, repeating both passes until stable.
    """
    if universe_size < 1:
        raise ValueError("universe must be nonempty")
    full = (1 << universe_size) - 1
    family: set[int] = {0, full}
    for s in subbasis:
        if s.universe_size != universe_size:
            raise ValueError("subbasis member over the wrong universe")
        family.add(s.bits)

    def close(op: Callable[[int, int], int]) -> None:
        while True:
            fresh = set()
            members = list(family)
            for i, u in enumerate(members):
                for v in members[i:]:
                    w = op(u, v)
                    if w not in family:
                        fresh.add(w)
            if not fresh:
                return
            family.update(fresh)

    while True:
        before = len(family)
        close(lambda u, v: u & v)
        close(lambda u, v: u | v)
        if len(family) == before:
            break
    opens = tuple(PointSet(universe_size, b) for b in sorted(family))
    return FiniteTopology(universe_size, opens)


def interior(topology: FiniteTopology, a: PointSet) -> PointSet:
    """Union of all open sets contained in ``a`` (the greatest such open)."""
    if a.universe_size != topology.universe_size:
        raise ValueError("argument over the wrong universe")
    bits = 0
    for o in topology.opens:
        if o.bits & ~a.bits == 0:
            bits |= o.bits
    return PointSet(topology.universe_size, bits)


def closure(topology: FiniteTopology, a: PointSet) -> PointSet:
    """Least closed superset of ``a``, computed as X minus Int(X minus a)."""
    return interior(topology, a.complement()).complement()


def is_regular_closed(topology: FiniteTopology, a: PointSet) -> bool:
    return closure(topology, interior(topology, a)) == a


def is_regular_open(topology: FiniteTopology, a: PointSet) -> bool:
    return interior(topology, closure(topology, a)) == a


@dataclass(frozen=True)
class RegularClosedAlgebra:
    """The Boolean algebra of regular closed sets of a finite space.

    Zero is the empty set, the unit is the universe, join is plain union,
    complement of A is Cl(X minus A), and meet is Cl(Int(A intersect B)).
    The carrier is sorted by bit pattern; atoms are the minimal nonzero
    elements, and every element is the union of the atoms below it.
    """

    topology: FiniteTopology
    carrier: tuple[PointSet, ...]
    atom_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = [c.bits for c in self.carrier]
        if bits != sorted(set(bits)):
            raise ValueError("carrier must be distinct and sorted by bit pattern")
        for c in self.carrier:
            if not is_regular_closed(self.topology, c):
                raise ValueError(f"{c} is not regular closed")
        family = set(bits)
        if 0 not in family or self.topology.universe.bits not in family:
            raise ValueError("carrier must contain the zero and unit elements")
        for x in self.carrier:
            if self.star(x).bits not in family:
                raise ValueError("carrier not closed under complement")
            for y in self.carrier:
                if (x.bits | y.bits) not in family or self.meet(x, y).bits not in family:
                    raise ValueError("carrier not closed under join/meet")
        expected_atoms = tuple(
            i
            for i, c in enumerate(self.carrier)
            if not c.is_empty
            and not any(
                not d.is_empty and d != c and d.issubset(c) for d in self.carrier
            )
        )
        if self.atom_indices != expected_atoms:
            raise ValueError("atom_indices are not the minimal nonzero elements")
        for c in self.carrier:
            below = [a for a in self.atoms if a.issubset(c)]
            if reduce(lambda x, y: x | y, below, PointSet.empty(c.universe_size)) != c:
                raise ValueError("element is not the join of the atoms below it")

    @property
    def zero(self) -> PointSet:
        return self.carrier[0]

    @property
    def one(self) -> PointSet:
        return self.carrier[-1]

    @cached_property
    def atoms(self) -> tuple[PointSet, ...]:
        return tuple(self.carrier[i] for i in self.atom_indices)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {c.bits: i for i, c in enumerate(self.carrier)}

    def contains(self, a: PointSet) -> bool:
        return a.universe_size == self.topology.universe_size and a.bits in self._index

    def index_of(self, a: PointSet) -> int:
        return self._index[a.bits]

    def _require(self, *sets: PointSet) -> None:
        for a in sets:
            if not self.contains(a):
                raise ValueError(f"{a} is not a carrier element")

    def star(self, a: PointSet) -> PointSet:
        """Boolean complement: closure of the set complement."""
        return closure(self.topology, a.complement())

    def join(self, a: PointSet, b: PointSet) -> PointSet:
        return a | b

    def meet(self, a: PointSet, b: PointSet) -> PointSet:
        return closure(self.topology, interior(self.topology, a & b))

    def atom_mask(self, a: PointSet) -> int:
        """Bitmask over atom positions of the atoms below ``a``."""
        mask = 0
        for i, atom in enumerate(self.atoms):
            if atom.issubset(a):
                mask |= 1 << i
        return mask


def rc_algebra(topology: FiniteTopology) -> RegularClosedAlgebra:
    """The regular closed algebra, with carrier {Cl(U) : U open}."""
    carrier_bits = sorted({closure(topology, o).bits for o in topology.opens})
    carrier = tuple(PointSet(topology.universe_size, b) for b in carrier_bits)
    atom_indices = tuple(
        i
        for i, c in enumerate(carrier)
        if not c.is_empty
        and not any(not d.is_empty and d != c and d.issubset(c) for d in carrier)
    )
    alg = RegularClosedAlgebra(topology, carrier, atom_indices)
    if len(alg.carrier) != 1 << len(alg.atom_indices):
        raise AssertionError("carrier size is not 2 to the number of atoms")
    return alg


def brute_force_regular_closed(
    topology: FiniteTopology, cap: int = DEFAULT_BRUTE_FORCE_UNIVERSE_CAP
) -> tuple[PointSet, ...]:
    """All subsets A with Cl(Int(A)) = A, by scanning the whole powerset."""
    n = topology.universe_size
    if n > cap:
        raise CapExceeded(f"universe size {n} exceeds brute-force cap {cap}")
    out = []
    for bits in range(1 << n):
        a = PointSet(n, bits)
        if is_regular_closed(topology, a):
            out.append(a)
    return tuple(out)


def rc_contact(alg: RegularClosedAlgebra, a: PointSet, b: PointSet) -> bool:
    """Contact: the two regions share a point."""
    alg._require(a, b)
    return not a.isdisjoint(b)


def rc_covering(alg: RegularClosedAlgebra, a: PointSet, b: PointSet, d: PointSet) -> bool:
    """Covering: the (plain) intersection of a and b is included in d."""
    alg._require(a, b, d)
    return (a & b).issubset(d)


def rc_internally_connected(alg: RegularClosedAlgebra, a: PointSet) -> bool:
    """True iff Int(a) is not a union of two disjoint nonempty open sets.

    The empty region is internally connected by convention (the defining
    quantification over nonempty opens is vacuous for it).
    """
    alg._require(a)
    inner = interior(alg.topology, a).bits
    for u in alg.topology.opens:
        if u.bits == 0 or u.bits & ~inner:
            continue
        v = inner & ~u.bits
        if v and v in alg.topology._open_bits:
            return False
    return True


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
    """The regular open algebra, with carrier {Int(F) : F closed}."""
    carrier_bits = sorted({interior(topology, c).bits for c in topology.closed_sets()})
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


# ---------------------------------------------------------------------------
# JSON documents: {"universe": [label, ...], "subbasis": [[label, ...], ...]}


@dataclass(frozen=True)
class LabeledTopology:
    """A topology together with the user-facing point labels from a document."""

    labels: tuple[str, ...]
    subbasis: tuple[PointSet, ...]
    topology: FiniteTopology

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def set_from_labels(self, labels: Iterable[str]) -> PointSet:
        points = []
        for lab in labels:
            if lab not in self._label_index:
                raise DocumentError(f"unknown point label {lab!r}")
            points.append(self._label_index[lab])
        return PointSet.from_points(len(self.labels), points)

    def labels_of(self, a: PointSet) -> list[str]:
        return sorted(self.labels[p] for p in a.points())


def labeled_topology_from_document(doc: object) -> LabeledTopology:
    if not isinstance(doc, dict):
        raise DocumentError("topology document must be a JSON object")
    universe = doc.get("universe")
    subbasis = doc.get("subbasis")
    if not isinstance(universe, list) or not universe or not all(isinstance(x, str) for x in universe):
        raise DocumentError('"universe" must be a nonempty array of labels')
    if len(set(universe)) != len(universe):
        raise DocumentError('"universe" labels must be distinct')
    if not isinstance(subbasis, list) or not all(isinstance(s, list) for s in subbasis):
        raise DocumentError('"subbasis" must be an array of label arrays')
    labels = tuple(universe)
    index = {lab: i for i, lab in enumerate(labels)}
    sets = []
    for s in subbasis:
        points = []
        for lab in s:
            if not isinstance(lab, str) or lab not in index:
                raise DocumentError(f"unknown point label {lab!r} in subbasis")
            points.append(index[lab])
        sets.append(PointSet.from_points(len(labels), points))
    topo = generate_topology(len(labels), sets)
    return LabeledTopology(labels, tuple(sets), topo)


def topology_document(labeled: LabeledTopology) -> dict:
    return {
        "universe": list(labeled.labels),
        "subbasis": [labeled.labels_of(s) for s in labeled.subbasis],
    }
