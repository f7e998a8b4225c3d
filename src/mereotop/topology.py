"""Finite topological spaces and their regular closed / regular open algebras.

Points are 0-based indices into a finite universe; subsets are immutable
bitmask-backed :class:`PointSet` values.  A finite space is stored as the
minimal open neighbourhood U_x of each point x, the least open set that
contains x (Alexandroff, "Diskrete Räume", 1937).  The open sets are the
unions of the U_x, Int(A) = {x : U_x inside A}, Cl(A) = {x : U_x meets A},
and neither the regular closed algebra nor the count of open sets lists
the open family (up to 2^n sets).  The regular closed algebra is its
atoms, the closures of the minimal U_x, checked once; the carrier (every
union of atoms) is derived from them.  Contact and internal connectedness
follow.  JSON documents use human labels; indices never leak.

Reading a document of n points, m subbasis members and L labels costs one
pass over its labels, one store per label into a member's row of n binary
digits, which is then read as its mask in one call, and one float32 product
of the m x n member matrix with its complement, which gives every U_x:
O(m·n²) multiply-adds in BLAS and O(n + m + L) interpreter steps, where the
direct loops and the preorder check took O(n·m + d²) steps for d distinct
U_x.  U_x so built form a preorder by construction and are not checked
again.  The product is taken in chunks of rows of about 4 MiB, so its
memory is O(m·n) plus one chunk; it is a handful of NumPy calls, so a small
space pays a fixed cost of some microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

import numpy as np


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

    def complement(self) -> "PointSet":
        return PointSet(self.universe_size, ((1 << self.universe_size) - 1) & ~self.bits)

    def isdisjoint(self, other: "PointSet") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    __or__ = union
    __invert__ = complement


@dataclass(frozen=True)
class FiniteTopology:
    """A finite topological space, given by the minimal open neighbourhood
    U_x of each point x: ``neighbourhoods[x]`` is the least open set that
    contains x.

    A family of sets is the U_x of some topology exactly when x is in U_x,
    and y in U_x implies U_y inside U_x; the constructor checks this, and
    :func:`generate_topology`, whose families hold it by construction,
    skips the check.  The open sets are then the unions of the U_x.
    """

    universe_size: int
    neighbourhoods: tuple[PointSet, ...]

    def __post_init__(self) -> None:
        n = self.universe_size
        if n < 1:
            raise ValueError("universe must be nonempty")
        if len(self.neighbourhoods) != n:
            raise ValueError(f"{len(self.neighbourhoods)} neighbourhoods for {n} points")
        if any(u.universe_size != n for u in self.neighbourhoods):
            raise ValueError("neighbourhood over the wrong universe")
        for u, points in self._neighbourhood_points.items():
            if points & ~u:
                x = (points & ~u).bit_length() - 1
                raise ValueError(f"point {x} is not in its own neighbourhood U_{x}")
            for v, inside in self._neighbourhood_points.items():
                if inside & u and v & ~u:
                    y = (inside & u).bit_length() - 1
                    raise ValueError(f"point {y} is in a neighbourhood without U_{y} inside it")

    @classmethod
    def _of_intersections(cls, universe_size: int, neighbourhoods: tuple[PointSet, ...]) -> "FiniteTopology":
        """The topology whose U_x are the given intersections of subbasis
        members, one per point x over the members that hold x.  Such a
        family needs no check: x is in every member that holds x, and when y
        is in U_x every member that holds x holds y, so U_y lies inside U_x."""
        topology = cls.__new__(cls)
        object.__setattr__(topology, "universe_size", universe_size)
        object.__setattr__(topology, "neighbourhoods", neighbourhoods)
        return topology

    @cached_property
    def _neighbourhood_points(self) -> dict[int, int]:
        """Each distinct U_x, as a bitmask, mapped to the mask of the points
        x that have it; there are often far fewer than n."""
        points: dict[int, int] = {}
        for x, u in enumerate(self.neighbourhoods):
            points[u.bits] = points.get(u.bits, 0) | 1 << x
        return points

    @cached_property
    def opens(self) -> tuple[PointSet, ...]:
        """Every open set, sorted by bit pattern: the unions of the U_x.
        There can be up to 2^n of them, so only reports and tests ask."""
        family = {0}
        for u in self._neighbourhood_points:
            family |= {o | u for o in family}
        return tuple(PointSet(self.universe_size, b) for b in sorted(family))

    @cached_property
    def open_count(self) -> int:
        """The number of open sets, counted without listing them.  The opens
        are the down-sets of the distinct U_x ordered by inclusion, one per
        antichain (the down-set's maximal members), and the antichains of P
        number count(P - x) + count(P - x - {y comparable to x}) for any x
        in P.  The count is memoised on the remaining set and driven by an
        explicit stack, so a long chain of U_x cannot hit the recursion
        limit."""
        us = list(self._neighbourhood_points)
        comparable = [
            reduce(or_, (1 << j for j, v in enumerate(us) if u & ~v == 0 or v & ~u == 0))
            for u in us
        ]
        count = {0: 1}
        stack = [(1 << len(us)) - 1]
        while stack:
            p = stack[-1]
            x = (p & -p).bit_length() - 1
            rest, apart = p & ~(1 << x), p & ~comparable[x]
            todo = [q for q in (rest, apart) if q not in count]
            if todo:
                stack += todo
            else:
                count[p] = count[rest] + count[apart]
                stack.pop()
        return count[(1 << len(us)) - 1]

    @property
    def universe(self) -> PointSet:
        return PointSet.full(self.universe_size)


def bit_matrix(size: int, masks: Sequence[int]) -> np.ndarray:
    """Row i holds the bits 0..size-1 of masks[i] as uint8 0/1.  Masks go
    through bytes, never a fixed-width integer, so any size fits."""
    width = (size + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=size, bitorder="little")


_PRODUCT_CHUNK_ELEMENTS = 1 << 20  # float32 entries per chunk of rows: about 4 MiB


def generate_topology(universe_size: int, subbasis: Sequence[PointSet]) -> FiniteTopology:
    """Least topology on the universe containing every subbasis member.

    U_x is the intersection of the members that contain x, or the whole
    universe when none does: every open set of the least topology is a
    union of finite intersections of members.  So y is outside U_x exactly
    when some member holds x but not y, which one float32 product of the
    member x point matrix counts for every (x, y) at once (exact: a count
    never exceeds the number of members).
    """
    n = universe_size
    if n < 1:
        raise ValueError("universe must be nonempty")
    for s in subbasis:
        if s.universe_size != n:
            raise ValueError("subbasis member over the wrong universe")
    member = bit_matrix(n, [s.bits for s in subbasis]).astype(np.float32)
    holds, misses = member.T, 1 - member
    step = max(1, _PRODUCT_CHUNK_ELEMENTS // n)
    rows = b"".join(
        np.packbits(holds[i : i + step].dot(misses) == 0, axis=1, bitorder="little").tobytes()
        for i in range(0, n, step)
    )
    width = (n + 7) // 8
    return FiniteTopology._of_intersections(
        n,
        tuple(
            PointSet(n, int.from_bytes(rows[i : i + width], "little"))
            for i in range(0, n * width, width)
        ),
    )


def interior(topology: FiniteTopology, a: PointSet) -> PointSet:
    """Int(A) = {x : U_x inside A}, the greatest open set inside ``a``: the
    union of the U_x inside A, since y in U_x makes U_y inside U_x."""
    if a.universe_size != topology.universe_size:
        raise ValueError("argument over the wrong universe")
    bits = 0
    for u in topology._neighbourhood_points:
        if u & ~a.bits == 0:
            bits |= u
    return PointSet(topology.universe_size, bits)


def closure(topology: FiniteTopology, a: PointSet) -> PointSet:
    """Cl(A) = {x : U_x meets A}, the least closed set containing ``a``."""
    if a.universe_size != topology.universe_size:
        raise ValueError("argument over the wrong universe")
    return PointSet(topology.universe_size, _closure_bits(topology, a.bits))


def _closure_bits(topology: FiniteTopology, a: int) -> int:
    bits = 0
    for u, points in topology._neighbourhood_points.items():
        if u & a:
            bits |= points
    return bits


def mask_indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first, one step
    per set bit."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def joins_by_mask(zero, parts: Sequence) -> tuple:
    """Entry m is ``zero`` joined with the parts selected by the bits of m,
    for every mask m over ``parts`` in ascending order."""
    joins = [zero]
    for part in parts:
        joins += [m | part for m in joins]
    return tuple(joins)


@dataclass(frozen=True)
class RegularClosedAlgebra:
    """The Boolean algebra of regular closed sets of a finite space, stored
    as its atoms: the algebra is its atoms, and the carrier is derived.

    Zero is the empty set, the unit is the universe, join is plain union,
    complement of A is Cl(X minus A), and meet is Cl(Int(A intersect B)).
    The atoms must be nonempty, distinct and sorted by bit pattern; each
    must be regular closed, their interiors pairwise disjoint, and together
    they must cover X.  That is enough for the unions of the atoms to be a
    Boolean algebra under these operations with exactly these atoms: a
    finite union of regular closed sets is regular closed; Int(a_j) is open
    and misses Int(a_i) for i != j, so it misses a_i = Cl(Int(a_i)), and
    with the cover that keeps meets and complements unions of atoms (the
    complement of a union is the union of the other atoms); and distinct
    sets of atoms have distinct unions, since a nonempty a_j has a nonempty
    interior that no other atom meets.  :func:`rc_algebra` passes the atoms
    whose unions are all of RC(X).  ``element_sets[m]`` is the union of the
    atoms selected by bit mask m; ``carrier`` is the same sets sorted by bit
    pattern, and ``atom_indices`` are the atoms' positions in it.
    """

    topology: FiniteTopology
    atoms: tuple[PointSet, ...]

    def __post_init__(self) -> None:
        bits = [a.bits for a in self.atoms]
        if bits != sorted(set(bits)):
            raise ValueError("atoms must be distinct and sorted by bit pattern")
        if 0 in bits:
            raise ValueError("atoms must be nonempty")
        inner = 0
        for atom in self.atoms:
            core = interior(self.topology, atom)
            if closure(self.topology, core) != atom:
                raise ValueError(f"{atom} is not regular closed")
            if core.bits & inner:
                raise ValueError("atom interiors overlap")
            inner |= core.bits
        if reduce(or_, bits, 0) != self.topology.universe.bits:
            raise ValueError("atoms do not cover the universe")

    @cached_property
    def element_sets(self) -> tuple[PointSet, ...]:
        return joins_by_mask(PointSet.empty(self.topology.universe_size), self.atoms)

    @cached_property
    def carrier(self) -> tuple[PointSet, ...]:
        return tuple(sorted(self.element_sets))

    @cached_property
    def atom_indices(self) -> tuple[int, ...]:
        return tuple(self._index[a.bits] for a in self.atoms)

    @cached_property
    def point_signatures(self) -> tuple[int, ...]:
        """Entry x is the atom signature of point x: the mask of the atoms
        that hold x.  A point lies in the union of the atoms of mask m iff m
        meets its signature.  Each atom's points are walked once."""
        signatures = [0] * self.topology.universe_size
        for i, atom in enumerate(self.atoms):
            for x in mask_indices(atom.bits):
                signatures[x] |= 1 << i
        return tuple(signatures)

    @property
    def zero(self) -> PointSet:
        return self.carrier[0]

    @property
    def one(self) -> PointSet:
        return self.carrier[-1]

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


def check_cap(atom_count: int, cap_elements: int) -> None:
    """Raise :class:`CapExceeded` when 2^atom_count elements exceed the cap.
    2^k > cap iff k reaches the cap's bit length, so a huge k costs nothing,
    and from k = 64 the message writes the size as 2^k."""
    if atom_count >= max(cap_elements, 0).bit_length():
        raise over_cap(1 << atom_count if atom_count < 64 else f"2^{atom_count}", cap_elements)


def over_cap(size: int | str, cap_elements: int) -> CapExceeded:
    """The error for ``size`` elements over the cap.  It names the CLI option
    that raises the cap, since every command reaches it through that option."""
    return CapExceeded(
        f"{size} elements exceed the exhaustive-check cap of {cap_elements}; "
        "pass a larger --cap-elements to force the check"
    )


def rc_algebra(topology: FiniteTopology, *, cap_elements: int | None = None) -> RegularClosedAlgebra:
    """The regular closed algebra {Cl(U) : U open}, given by its atoms, the
    distinct Cl(U_x) for the minimal U_x.  Every open U is a union of U_x,
    each holding a minimal one, so Cl(U) is the union of the atoms below it.
    With ``cap_elements``, a carrier of 2^k elements over the cap raises
    :class:`CapExceeded`; the carrier itself is only built when asked for.
    """
    n = topology.universe_size
    # U_y inside U_x for every y in U_x, so U_x is minimal exactly when
    # every point of U_x has U_x as its own neighbourhood
    minimal = [u for u, points in topology._neighbourhood_points.items() if points == u]
    if cap_elements is not None:
        check_cap(len(minimal), cap_elements)
    atoms = sorted(_closure_bits(topology, u) for u in minimal)
    return RegularClosedAlgebra(topology, tuple(PointSet(n, a) for a in atoms))


def rc_contact(alg: RegularClosedAlgebra, a: PointSet, b: PointSet) -> bool:
    """Contact: the two regions share a point."""
    alg._require(a, b)
    return not a.isdisjoint(b)


def glued_components(mask: int, blocks: Iterable[int]) -> list[int]:
    """The points of ``mask`` split into components, where two points are
    joined when some block inside ``mask`` holds both; blocks reaching
    outside ``mask`` are ignored.  The empty mask has no components."""
    components = [1 << p for p in range(mask.bit_length()) if mask >> p & 1]
    for m in blocks:
        if m & ~mask:
            continue
        touching = [c for c in components if c & m]
        if len(touching) > 1:
            components = [c for c in components if not c & m]
            components.append(reduce(or_, touching))
    return components


def rc_internally_connected(alg: RegularClosedAlgebra, a: PointSet) -> bool:
    """True iff Int(a) is not a union of two disjoint nonempty open sets.

    The U_x of the points x of an open set lie inside it, and its components
    are its points glued along them.  The empty region is internally
    connected by convention (the defining quantification over nonempty
    opens is vacuous for it).
    """
    alg._require(a)
    inner = interior(alg.topology, a).bits
    return len(glued_components(inner, alg.topology._neighbourhood_points)) <= 1


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
    n = len(labels)
    # a member's mask is read from n binary digits, highest point first: one
    # store per label, and a repeated label stores its digit again
    digit_of = {lab: n - 1 - i for i, lab in enumerate(labels)}
    zeros = b"0" * n
    sets = []
    for s in subbasis:
        digits = bytearray(zeros)
        try:
            for lab in s:
                digits[digit_of[lab]] = 49  # b"1"
        except (KeyError, TypeError):
            for lab in s:
                if not isinstance(lab, str) or lab not in digit_of:
                    raise DocumentError(f"unknown point label {lab!r} in subbasis") from None
            raise
        sets.append(PointSet(n, int(digits, 2)))
    return LabeledTopology(labels, tuple(sets), generate_topology(n, sets))

