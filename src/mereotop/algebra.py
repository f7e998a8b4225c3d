"""Covering relations on finite Boolean algebras and their axiom systems.

Elements of a finite Boolean algebra with k atoms are the integers
0..2^k-1 read as atom bitmasks, so join/meet/complement are bitwise
or/and/not and the order is bitmask inclusion.  A covering relation is a
dense boolean table of shape (N, N, N) with entry [a, b, d] true when the
pair (a, b) is covered by d; a contact relation is an (N, N) table.

Two generators build a covering from small data, each by subset-or folds
in O(k·N³): ``covering_from_signatures`` from a family of atom sets (the
atom signatures of the points of the representation theorem's space), and
``covering_from_slices`` from atom slices R_f, an (N, k, k) array.
``signatures`` and ``atom_slices`` read that data off a table.  A finite
table satisfies the extended contact axioms exactly when it is the covering
of its own signatures S* and every single atom is in S*, and the weak ones
exactly when its atom slices grow with f and generate it.  So check_eca,
check_weca and check_weca_consequences (whose six laws follow from the weak
axioms) generate the table once and, when it matches, report every axiom
passed without any per-axiom work.  Otherwise, or in a checker without a
rebuild, each axiom is decided by an exact reduced form where one exists:
ECA1 by a greatest-fixpoint fold of one-atom growth steps, in O(k·N³); CA1
with CA2, and RCL1 with RCL2 for every g, by equality with the
join-extension from zero and the atoms; WECA3, with no other axiom assumed,
by each cover's slice being a sublattice of B x B^op (one superset-and fold
over pair words).  Only a failing verdict runs the literal search, which
reports the lexicographically first violating tuple — the one a direct
nested loop over ascending element values would find.  The ECA1 search runs
on the first failing (a, b) alone; the WECA3 search tests all (d, e, f) of
one (a, b) at once and stops at the first (a, b) that has a hit.  A plain
triple-list covering document is read straight from its bytes; any other
goes through the JSON parser and covering_from_document, which alone
reports faults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain
from operator import and_, or_
from typing import Callable, Iterable, Literal

import numpy as np

from .topology import CapExceeded, DocumentError, PointSet, RegularClosedAlgebra, check_carrier_cap

DEFAULT_CHECK_CAP = 32

Strength = Literal["ECA", "WECA"]


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """The Boolean algebra with a given number of atoms, elements as masks."""

    atom_count: int

    def __post_init__(self) -> None:
        if self.atom_count < 1:
            raise ValueError("a Boolean algebra needs at least one atom")

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return self.size - 1

    @property
    def atom_masks(self) -> tuple[int, ...]:
        return tuple(1 << i for i in range(self.atom_count))

    def elements(self) -> range:
        return range(self.size)

    def contains(self, a: int) -> bool:
        return 0 <= a < self.size

    def _require(self, *elements: int) -> None:
        for a in elements:
            if not self.contains(a):
                raise ValueError(f"{a} is not an element mask of a {self.atom_count}-atom algebra")

    def le(self, a: int, b: int) -> bool:
        self._require(a, b)
        return a & ~b == 0

    def join(self, a: int, b: int) -> int:
        self._require(a, b)
        return a | b

    def meet(self, a: int, b: int) -> int:
        self._require(a, b)
        return a & b

    def complement(self, a: int) -> int:
        self._require(a)
        return self.one & ~a


def _frozen_table(table: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A dense relation table as a read-only bool array of the given shape,
    never the caller's own array, which stays writable."""
    arr = np.ascontiguousarray(np.asarray(table, dtype=bool))
    if isinstance(table, np.ndarray) and np.may_share_memory(arr, table):
        arr = arr.copy()
    if arr.shape != shape:
        raise ValueError(f"table has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CoveringRelation:
    """A ternary relation (a, b) |- d over a finite Boolean algebra."""

    algebra: FiniteBooleanAlgebra
    table: np.ndarray

    def __post_init__(self) -> None:
        n = self.algebra.size
        object.__setattr__(self, "table", _frozen_table(self.table, (n, n, n)))

    @classmethod
    def from_predicate(
        cls, algebra: FiniteBooleanAlgebra, predicate: Callable[[int, int, int], bool]
    ) -> "CoveringRelation":
        n = algebra.size
        table = np.empty((n, n, n), dtype=bool)
        for a in range(n):
            for b in range(n):
                for d in range(n):
                    table[a, b, d] = bool(predicate(a, b, d))
        return cls(algebra, table)

    @classmethod
    def from_true_triples(
        cls, algebra: FiniteBooleanAlgebra, triples: Iterable[tuple[int, int, int]]
    ) -> "CoveringRelation":
        n = algebra.size
        table = np.zeros((n, n, n), dtype=bool)
        for a, b, d in triples:
            algebra._require(a, b, d)
            table[a, b, d] = True
        return cls(algebra, table)

    def true_triples(self) -> list[tuple[int, int, int]]:
        return [tuple(int(x) for x in row) for row in np.argwhere(self.table)]

    def holds(self, a: int, b: int, d: int) -> bool:
        self.algebra._require(a, b, d)
        return bool(self.table[a, b, d])


@dataclass(frozen=True, eq=False)
class ContactRelation:
    """A binary contact relation over a finite Boolean algebra."""

    algebra: FiniteBooleanAlgebra
    table: np.ndarray

    def __post_init__(self) -> None:
        n = self.algebra.size
        object.__setattr__(self, "table", _frozen_table(self.table, (n, n)))

    @classmethod
    def from_predicate(
        cls, algebra: FiniteBooleanAlgebra, predicate: Callable[[int, int], bool]
    ) -> "ContactRelation":
        n = algebra.size
        table = np.empty((n, n), dtype=bool)
        for a in range(n):
            for b in range(n):
                table[a, b] = bool(predicate(a, b))
        return cls(algebra, table)

    def holds(self, a: int, b: int) -> bool:
        self.algebra._require(a, b)
        return bool(self.table[a, b])


def discrete_covering(atom_count: int) -> CoveringRelation:
    """The covering (a, b) |- d iff a meet b <= d (contact = overlap)."""
    algebra = FiniteBooleanAlgebra(atom_count)
    _, _, and_t, _, le_t = _tables(atom_count)
    return CoveringRelation(algebra, le_t[and_t])


# ---------------------------------------------------------------------------
# check results


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; witness is the first violating tuple."""

    name: str
    passed: bool
    witness: tuple | None = None


def checks_document(results: Iterable[CheckResult]) -> list[dict]:
    """The JSON shape of named checks: name, pass, and the witness as a list."""
    return [
        {"name": r.name, "pass": r.passed, "witness": None if r.witness is None else list(r.witness)}
        for r in results
    ]


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[CheckResult, ...]

    @classmethod
    def of(cls, witnesses: dict[str, tuple | None]) -> "AxiomReport":
        """One result per named check, in order; a None witness passes."""
        return cls(tuple(CheckResult(name, w is None, w) for name, w in witnesses.items()))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def as_dict(self) -> dict[str, tuple | None]:
        """Name -> witness (None when the check passed)."""
        return {r.name: r.witness for r in self.results}


class AxiomViolation(ValueError):
    """A relation failed the axioms it was claimed to satisfy."""

    def __init__(self, what: str, report: AxiomReport) -> None:
        parts = ", ".join(f"{r.name} at {r.witness}" for r in report.failures())
        super().__init__(f"{what} violated: {parts}")
        self.report = report


@dataclass(frozen=True)
class ExtendedContactAlgebra:
    """A Boolean algebra with a covering relation of a declared strength.

    ``strength`` records which axiom family the covering is claimed to
    satisfy ("ECA" for the extended contact axioms, "WECA" for the weak
    ones).  Construct through :func:`verified_eca` / :func:`verified_weca`
    to have the claim machine-checked; direct construction skips the check.
    """

    covering: CoveringRelation
    strength: Strength

    def __post_init__(self) -> None:
        if self.strength not in ("ECA", "WECA"):
            raise ValueError(f"unknown strength {self.strength!r}")

    @property
    def algebra(self) -> FiniteBooleanAlgebra:
        return self.covering.algebra


def verified_eca(
    covering: CoveringRelation, *, cap_elements: int = DEFAULT_CHECK_CAP
) -> ExtendedContactAlgebra:
    report = check_eca(covering, cap_elements=cap_elements)
    if not report.all_passed:
        raise AxiomViolation("extended contact axioms", report)
    return ExtendedContactAlgebra(covering, "ECA")


def verified_weca(
    covering: CoveringRelation, *, cap_elements: int = DEFAULT_CHECK_CAP
) -> ExtendedContactAlgebra:
    report = check_weca(covering, cap_elements=cap_elements)
    if not report.all_passed:
        raise AxiomViolation("weak extended contact axioms", report)
    return ExtendedContactAlgebra(covering, "WECA")


# ---------------------------------------------------------------------------
# vectorization helpers


@lru_cache(maxsize=None)
def _tables(atom_count: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(N, elements, and-table, or-table, le-table) for a k-atom algebra."""
    n = 1 << atom_count
    e = np.arange(n)
    and_t = e[:, None] & e[None, :]
    or_t = e[:, None] | e[None, :]
    le_t = (e[:, None] & ~e[None, :]) == 0
    return n, e, and_t, or_t, le_t


def _fold(
    table: np.ndarray, axis: int, bits: int, op: np.ufunc = np.bitwise_or, *, subsets: bool = False
) -> np.ndarray:
    """out[.., x, ..] = op of table over all supersets y of x along axis (over
    all subsets with ``subsets``), for x of ``bits`` bits: one in-place pass
    per bit, pairing each x without the bit with x with it."""
    out = table.copy()
    head, tail = out.shape[:axis], out.shape[axis + 1 :]
    lead = (slice(None),) * (axis + 1)
    for bit in range(bits):
        pairs = out.reshape(*head, -1, 2, 1 << bit, *tail)
        without, with_ = pairs[lead + (0,)], pairs[lead + (1,)]
        if subsets:
            op(with_, without, out=with_)
        else:
            op(without, with_, out=without)
    return out


def _first(viol: np.ndarray) -> tuple[int, ...]:
    """Lexicographically first true index of a boolean array."""
    return tuple(int(x) for x in np.argwhere(viol)[0])


def _check_cap(atom_count: int, cap_elements: int) -> None:
    # 2^k > cap iff k reaches the cap's bit length, so a huge k costs nothing
    if atom_count >= max(cap_elements, 0).bit_length():
        size = 1 << atom_count if atom_count < 64 else f"2^{atom_count}"
        raise CapExceeded(
            f"{size} elements exceed the exhaustive-check cap of {cap_elements}; "
            "pass a larger cap_elements to force the check"
        )


# ---------------------------------------------------------------------------
# the generators: atom signatures S* and atom slices R_f


@lru_cache(maxsize=None)
def _meets_both(atom_count: int) -> np.ndarray:
    """[σ, a, b]: the atom set σ meets both a and b (read-only)."""
    meets = _tables(atom_count)[2] != 0
    out = meets[:, :, None] & meets[:, None, :]
    out.setflags(write=False)
    return out


def _signature_flags(by_cover: np.ndarray, k: int) -> np.ndarray:
    """flags[σ] (flags[0] always holds) of a table in (c, a, b) layout.
    ``below[x]`` is the pairs covered by some c inside x; σ misses c iff c
    lies inside the complement of σ, row N - 1 - σ."""
    below = _fold(by_cover, 0, k, subsets=True)
    return ~(below[::-1] & _meets_both(k)).any(axis=(1, 2))


def _covering_of_signatures(flags: np.ndarray, k: int) -> np.ndarray:
    """The covering of {σ : flags[σ]} in (c, a, b) layout.  ``split[x]`` is
    the pairs that some σ inside x meets on both sides, read at N - 1 - c."""
    split = _fold(_meets_both(k) & flags[:, None, None], 0, k, subsets=True)
    return ~split[::-1]


def _atom_slices(v: np.ndarray, k: int) -> np.ndarray:
    atoms = 1 << np.arange(k)
    return np.ascontiguousarray(v[atoms][:, atoms].transpose(2, 0, 1))


def _covering_of_slices(slices: np.ndarray, k: int) -> np.ndarray:
    """The table generated by slices [f, p, q], in (a, b, f) layout: the
    complement of "some atom pair under (a, b) is outside R_f", an or over
    the atoms of a, then over those of b, each a fold from the atom rows."""
    n = 1 << k
    atoms = 1 << np.arange(k)
    gap = np.zeros((n, k, n), dtype=bool)
    gap[atoms] = ~slices.transpose(1, 2, 0)
    gap = _fold(gap, 0, k, subsets=True)  # [a, q, f]
    spread = np.zeros((n, n, n), dtype=bool)
    spread[:, atoms] = gap
    return ~_fold(spread, 1, k, subsets=True)


def signatures(covering: CoveringRelation) -> tuple[int, ...]:
    """S*, as ascending atom masks: the nonempty atom sets σ such that no
    covered (a, b, c) has σ meeting a and b and missing c."""
    by_cover = np.ascontiguousarray(covering.table.transpose(2, 0, 1))
    flags = _signature_flags(by_cover, covering.algebra.atom_count)
    return tuple((np.flatnonzero(flags[1:]) + 1).tolist())


def covering_from_signatures(atom_count: int, family: Iterable[int]) -> CoveringRelation:
    """The covering of a family of atom sets: (a, b) |- c iff no member of
    the family meets a and b and misses c.

    A table passes the extended contact axioms iff it is the covering of
    its own S* and every single atom is in S*.  That is the finite
    representation theorem: σ is the set of atoms whose closures hold a
    point of the model, and a point lies in the region a iff σ meets a."""
    algebra = FiniteBooleanAlgebra(atom_count)
    members = list(family)
    algebra._require(*members)
    flags = np.zeros(algebra.size, dtype=bool)
    flags[members] = True
    return CoveringRelation(algebra, _covering_of_signatures(flags, atom_count).transpose(1, 2, 0))


def atom_slices(covering: CoveringRelation) -> np.ndarray:
    """R_f(p, q) = (atom p, atom q) |- f, as an (N, k, k) bool array [f, p, q]."""
    return _atom_slices(covering.table, covering.algebra.atom_count)


def covering_from_slices(atom_count: int, slices: np.ndarray) -> CoveringRelation:
    """The table generated by atom slices [f, p, q]: (a, b) |- f iff R_f(p, q)
    for every atom p below a and q below b (so always when a or b is zero).

    A table passes the weak axioms iff its atom slices grow with f and
    generate it: WECA1 and WECA3 make each cover's slice a down-set closed
    under (a|d, b&e) and (a&d, b|e), so (a, b) is covered iff each pair of
    atoms under it is, and WECA4 is then R_f growing with f."""
    algebra = FiniteBooleanAlgebra(atom_count)
    slices = np.asarray(slices, dtype=bool)
    shape = (algebra.size, atom_count, atom_count)
    if slices.shape != shape:
        raise ValueError(f"slices have shape {slices.shape}, expected {shape}")
    return CoveringRelation(algebra, _covering_of_slices(slices, atom_count))


# ---------------------------------------------------------------------------
# contact axioms


def _ca12_mismatch(c: np.ndarray, k: int) -> np.ndarray:
    """Where c (over axes 0 and 1) differs from the join-extension of its
    restriction to zero and the atoms: nowhere iff CA1 and CA2 hold.  The
    zero is needed, since the all-true relation passes both."""
    base = np.array([0] + [1 << i for i in range(k)])
    restricted = np.zeros_like(c)
    restricted[np.ix_(base, base)] = c[np.ix_(base, base)]
    return _fold(_fold(restricted, 0, k, subsets=True), 1, k, subsets=True) != c


def _ca1(c: np.ndarray, n: int, k: int, le_t: np.ndarray) -> tuple | None:
    grown = _fold(_fold(c, 0, k, subsets=True), 1, k, subsets=True)
    if not (grown & ~c).any():
        return None
    for a in range(n):
        if not c[a].any():
            continue
        for b in range(n):
            if not c[a, b]:
                continue
            for d in range(n):
                if a & ~d:
                    continue
                es = le_t[b] & ~c[d]
                if es.any():
                    return (a, b, d, int(np.flatnonzero(es)[0]))
    return None


def _ca2(c: np.ndarray, n: int, or_t: np.ndarray) -> tuple | None:
    premise = c[or_t[:, None, :, None], or_t[None, :, None, :]]
    conclusion = (
        c[:, :, None, None]
        | c[:, None, None, :]
        | c.T[None, :, :, None]
        | c[None, None, :, :]
    )
    viol = premise & ~conclusion
    return _first(viol) if viol.any() else None


def _ca3(c: np.ndarray, n: int) -> tuple | None:
    viol = np.zeros_like(c)
    viol[0, :] = c[0, :]
    viol[:, 0] |= c[:, 0]
    return _first(viol) if viol.any() else None


def _ca4(c: np.ndarray, n: int) -> tuple | None:
    viol = ~c.diagonal().copy()
    viol[0] = False
    hits = np.flatnonzero(viol)
    return (int(hits[0]),) if len(hits) else None


def _ca5(c: np.ndarray) -> tuple | None:
    viol = c & ~c.T
    return _first(viol) if viol.any() else None


def check_ca(contact: ContactRelation, *, cap_elements: int = DEFAULT_CHECK_CAP) -> AxiomReport:
    """Check the five contact axioms: monotonicity in both arguments,
    distribution over joins, no contact with zero, reflexivity away from
    zero, and symmetry."""
    k = contact.algebra.atom_count
    _check_cap(k, cap_elements)
    n, _, _, or_t, le_t = _tables(k)
    c = contact.table
    reduced_pass = not _ca12_mismatch(c, k).any()
    witnesses = {
        "CA1": None if reduced_pass else _ca1(c, n, k, le_t),
        "CA2": None if reduced_pass else _ca2(c, n, or_t),
        "CA3": _ca3(c, n),
        "CA4": _ca4(c, n),
        "CA5": _ca5(c),
    }
    return AxiomReport.of(witnesses)


# ---------------------------------------------------------------------------
# extended contact axioms


def _eca_rebuilt(v: np.ndarray, k: int) -> bool:
    """The five extended contact axioms hold (see covering_from_signatures);
    a table lies inside the covering of its S*, but both ways are compared."""
    by_cover = np.ascontiguousarray(v.transpose(2, 0, 1))
    flags = _signature_flags(by_cover, k)
    if not flags[1 << np.arange(k)].all():
        return False
    return bool((by_cover == _covering_of_signatures(flags, k)).all())


def _eca1(v: np.ndarray, n: int, k: int, or_t: np.ndarray) -> tuple | None:
    """ECA1's lex-first witness, or None when it holds.

    safe[a, b, f] = v[a|d, b|e, d|e|f] for every d and e, so ECA1 holds iff
    safe == v (d = e = 0 gives safe <= v).  A growth is a composition of
    one-atom steps, so safe is a greatest fixpoint reached in 2k in-place
    steps: for atom p, safe[a, b, f] &= safe[a|p, b, f|p] on the a side and
    the same on the b side.  A step reads only entries with p in both the
    grown member and the cover, which it never writes, so it runs on paired
    reshape views.  The first true (a, b) of v & ~safe is the failing pair,
    and only it runs the literal (d, e, f) search, one d at a time."""
    safe = v.copy()
    for bit in range(k):
        split = (n >> bit + 1, 2, 1 << bit)
        for shape, axes in (((*split, n, *split), (1, 5)), ((n, *split, *split), (2, 5))):
            pairs = np.moveaxis(safe.reshape(shape), axes, (0, 1))  # [p in member, p in cover]
            pairs[0] &= pairs[1, 1]
            pairs[1, 0] &= pairs[1, 1]
    failing = (v & ~safe).any(axis=2)
    if not failing.any():
        return None
    a, b = _first(failing)
    for d in range(n):
        # [e, f] -> (a|d, b|e) |- d|e|f
        grown = v[a | d][or_t[b][:, None], or_t[or_t[d]]]
        viol = v[a, b] & ~grown
        if viol.any():
            return (a, b, d) + _first(viol)
    return None


def _eca2(v: np.ndarray, n: int) -> tuple | None:
    """ECA2's lex-first witness, or None.  Rows (a, b) covered by none or all
    d cannot fail; the rest go in lex order, 2^20 counts at a time, through
    a float32 matmul counting the e with (a, b) |- e and (d, e) |- f.  The
    first row that reaches an uncovered f runs the literal search."""
    pair_to_d = v.reshape(n * n, n)
    rows = np.flatnonzero(pair_to_d.any(axis=1) & ~pair_to_d.all(axis=1))
    if not len(rows):
        return None
    d_by_ef = np.ascontiguousarray(v.transpose(1, 0, 2)).reshape(n, n * n).astype(np.float32)
    step = max(1, (1 << 20) // (n * n))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        premise = pair_to_d[chunk]
        via_e = (premise.astype(np.float32) @ d_by_ef).reshape(len(chunk), n, n) > 0.5
        reach = (premise[:, :, None] & via_e).any(axis=1)
        hit = (reach & ~premise).any(axis=1)
        if not hit.any():
            continue
        a, b = divmod(int(chunk[np.argmax(hit)]), n)
        covered = np.flatnonzero(v[a, b])
        not_f = ~v[a, b]
        for d in covered:
            for e2 in covered:
                fs = v[d, e2] & not_f
                if fs.any():
                    return (a, b, int(d), int(e2), int(np.flatnonzero(fs)[0]))
    return None


def _eca3(v: np.ndarray, le_t: np.ndarray) -> tuple | None:
    viol = (le_t[:, None, :] | le_t[None, :, :]) & ~v
    return _first(viol) if viol.any() else None


def _eca4(v: np.ndarray, and_t: np.ndarray, le_t: np.ndarray) -> tuple | None:
    viol = v & ~le_t[and_t]
    return _first(viol) if viol.any() else None


def _eca5(v: np.ndarray) -> tuple | None:
    viol = v & ~v.transpose(1, 0, 2)
    return _first(viol) if viol.any() else None


def check_eca(covering: CoveringRelation, *, cap_elements: int = DEFAULT_CHECK_CAP) -> AxiomReport:
    """Check the five extended contact axioms: growing both members while
    adding the growth to the cover, transitivity of covering through a
    covered pair, covering by anything above either member, covered pairs
    meet inside the cover, and symmetry."""
    k = covering.algebra.atom_count
    _check_cap(k, cap_elements)
    n, _, and_t, or_t, le_t = _tables(k)
    v = covering.table
    if _eca_rebuilt(v, k):
        return AxiomReport.of(dict.fromkeys(("ECA1", "ECA2", "ECA3", "ECA4", "ECA5")))
    witnesses = {
        "ECA1": _eca1(v, n, k, or_t),
        "ECA2": _eca2(v, n),
        "ECA3": _eca3(v, le_t),
        "ECA4": _eca4(v, and_t, le_t),
        "ECA5": _eca5(v),
    }
    return AxiomReport.of(witnesses)


# ---------------------------------------------------------------------------
# weak extended contact axioms


def _weca_rebuilt(v: np.ndarray, k: int) -> bool:
    """The four weak axioms hold (see covering_from_slices)."""
    slices = _atom_slices(v, k)
    if (_fold(slices, 0, k, subsets=True) & ~slices).any():
        return False
    return bool((v == _covering_of_slices(slices, k)).all())


def _weca1(v: np.ndarray, n: int, k: int) -> tuple | None:
    grown = _fold(_fold(v, 0, k), 1, k)
    viol = grown & ~v
    if not viol.any():
        return None
    for a in range(n):
        if not viol[a].any():
            continue
        for b in range(n):
            if not viol[a, b].any():
                continue
            not_f = ~v[a, b]
            for d in range(n):
                if a & ~d:
                    continue
                for e2 in range(n):
                    if b & ~e2:
                        continue
                    fs = v[d, e2] & not_f
                    if fs.any():
                        return (a, b, d, e2, int(np.flatnonzero(fs)[0]))
    return None


def _weca2(v: np.ndarray) -> tuple | None:
    witness = None
    left = ~v[0]
    if left.any():
        b, f = _first(left)
        witness = (0, b, f)
    right = ~v[:, 0]
    if right.any():
        a, f = _first(right)
        candidate = (a, 0, f)
        if witness is None or candidate < witness:
            witness = candidate
    return witness


def _weca3_holds(v: np.ndarray, k: int) -> bool:
    """WECA3 iff each slice S_f = {(a, b) : (a, b) |- f} is a sublattice of
    B x B^op, closed under the meet (a&d, b|e) and the join (a|d, b&e).

    As the 2k-bit word a << k | ~b a pair meets by bitwise and, and a set of
    words is and-closed iff, for each word x, the and of the members above x
    (when there are any) is a member.  One superset-and fold gives those
    ands, starting non-members at -1: that sentinel, with the sign bit set,
    survives only where no member lies above x, and picks an appended
    all-true row.  Complementing both members swaps meet and join, so the
    join test is the same on the reversed words."""
    bits = 2 * k
    members = v[:, ::-1].reshape(1 << bits, -1)  # [a << k | ~b, f] = v[a, b, f]
    members = np.concatenate([members, members[::-1]], axis=1)
    words = np.arange(1 << bits, dtype=np.int32)[:, None]
    ands = _fold(np.where(members, words, -1), 0, bits, np.bitwise_and)
    members = np.concatenate([members, np.ones_like(members[:1])])
    return bool(members[ands, np.arange(members.shape[1])].all())


def _weca3(v: np.ndarray, n: int, and_t: np.ndarray, or_t: np.ndarray) -> tuple | None:
    for a in range(n):
        for b in range(n):
            premise = v[a, b]
            if not premise.any():
                continue
            # [d, e, f]: both mixed combinations of (a, b) and (d, e) under f
            ok = v[and_t[a][:, None], or_t[b]] & v[or_t[a][:, None], and_t[b]]
            viol = premise & v & ~ok
            if viol.any():
                return (a, b) + _first(viol)
    return None


def _weca4(v: np.ndarray, n: int, k: int, le_t: np.ndarray) -> tuple | None:
    # fold the cover axis at the front: along the last axis the low-bit
    # passes pair strided runs of one or two elements, about 10x slower
    grown = _fold(np.ascontiguousarray(v.transpose(2, 0, 1)), 0, k, subsets=True)
    viol = grown.transpose(1, 2, 0) & ~v
    if not viol.any():
        return None
    for a in range(n):
        if not viol[a].any():
            continue
        for b in range(n):
            if not viol[a, b].any():
                continue
            not_f = ~v[a, b]
            for d in range(n):
                if not v[a, b, d]:
                    continue
                fs = le_t[d] & not_f
                if fs.any():
                    return (a, b, d, int(np.flatnonzero(fs)[0]))
    return None


def check_weca(covering: CoveringRelation, *, cap_elements: int = DEFAULT_CHECK_CAP) -> AxiomReport:
    """Check the four weak extended contact axioms: antitonicity in the
    covered pair, coverage of pairs with an empty member, the two mixed
    meet/join combinations, and monotonicity in the cover."""
    k = covering.algebra.atom_count
    _check_cap(k, cap_elements)
    n, _, and_t, or_t, le_t = _tables(k)
    v = covering.table
    if _weca_rebuilt(v, k):
        return AxiomReport.of(dict.fromkeys(("WECA1", "WECA2", "WECA3", "WECA4")))
    witnesses = {
        "WECA1": _weca1(v, n, k),
        "WECA2": _weca2(v),
        "WECA3": None if _weca3_holds(v, k) else _weca3(v, n, and_t, or_t),
        "WECA4": _weca4(v, n, k, le_t),
    }
    return AxiomReport.of(witnesses)


# ---------------------------------------------------------------------------
# consequences of the weak axioms


def _cons12(v: np.ndarray, n: int) -> tuple[tuple | None, tuple | None]:
    first = np.flatnonzero(~v[0, n - 1])
    second = np.flatnonzero(~v[n - 1, 0])
    return (
        (int(first[0]),) if len(first) else None,
        (int(second[0]),) if len(second) else None,
    )


# CONS3 and CONS4 take one leading a at a time, in order, so each step
# holds N^3 entries and the first hit is the lex-first witness


def _cons3(v: np.ndarray, or_t: np.ndarray) -> tuple | None:
    # (a, d) |- e and (b, d) |- e but not (a | b, d) |- e
    for a in range(len(v)):
        if not v[a].any():
            continue
        viol = v[a] & v & ~v[or_t[a]]
        if viol.any():
            return (a, *_first(viol))
    return None


def _cons4(v: np.ndarray, or_t: np.ndarray) -> tuple | None:
    # (a, b) |- e and (a, d) |- e but not (a, b | d) |- e
    for a in range(len(v)):
        row = v[a]
        if not row.any():
            continue
        viol = row[:, None, :] & row[None, :, :] & ~row[or_t]
        if viol.any():
            return (a, *_first(viol))
    return None


def _cons56(v: np.ndarray, k: int, side: int) -> tuple | None:
    """CONS5 (side 0) or CONS6 (side 1): a covered pair stays covered when
    its member on that side shrinks to a part d.  ``kept`` is what stays
    covered under every shrink, one subset-and fold, so the first (a, b)
    covered by something not kept is the failing pair, and only it runs
    the literal (d, e) search."""
    kept = _fold(v, side, k, np.bitwise_and, subsets=True)
    fails = (v & ~kept).any(axis=2)
    if not fails.any():
        return None
    a, b = _first(fails)
    whole = (a, b)[side]
    for d in range(whole + 1):
        lost = v[a, b] & ~(v[d, b] if side == 0 else v[a, d])
        if d & ~whole == 0 and lost.any():
            return (a, b, d) + _first(lost)
    return None


def check_weca_consequences(
    covering: CoveringRelation, *, cap_elements: int = DEFAULT_CHECK_CAP
) -> AxiomReport:
    """Check six consequences of the weak axioms: the zero pairs are covered
    by everything, covering is additive in each member separately, and it is
    antitone in each member separately.  All six follow from the weak
    axioms, so a table that passes the slice rebuild passes them."""
    k = covering.algebra.atom_count
    _check_cap(k, cap_elements)
    n, _, _, or_t, _ = _tables(k)
    v = covering.table
    if _weca_rebuilt(v, k):
        return AxiomReport.of(dict.fromkeys(("CONS1", "CONS2", "CONS3", "CONS4", "CONS5", "CONS6")))
    cons1, cons2 = _cons12(v, n)
    witnesses = {
        "CONS1": cons1,
        "CONS2": cons2,
        "CONS3": _cons3(v, or_t),
        "CONS4": _cons4(v, or_t),
        "CONS5": _cons56(v, k, 0),
        "CONS6": _cons56(v, k, 1),
    }
    return AxiomReport.of(witnesses)


# ---------------------------------------------------------------------------
# contact relations derived from a covering


def derived_contact(eca: ExtendedContactAlgebra) -> ContactRelation:
    """Contact of an extended contact algebra: a and b are in contact when
    (a, b) is not covered by zero.  Only the "ECA" strength guarantees the
    contact axioms, so weaker inputs are rejected."""
    if eca.strength != "ECA":
        raise ValueError("derived contact needs the full extended contact axioms")
    return ContactRelation(eca.algebra, ~eca.covering.table[:, :, 0])


def check_relative_contact_laws(
    covering: CoveringRelation, *, cap_elements: int = DEFAULT_CHECK_CAP
) -> AxiomReport:
    """Check, for every region g, the five laws of contact relative to g:
    monotonicity, distribution over joins, no contact for parts of g,
    reflexivity outside g, and symmetry.  Witnesses carry g first."""
    k = covering.algebra.atom_count
    _check_cap(k, cap_elements)
    n, _, _, or_t, le_t = _tables(k)
    q = ~covering.table  # q[a, b, g]: a and b in contact relative to g
    rcl1 = rcl2 = None
    for g in map(int, np.flatnonzero(_ca12_mismatch(q, k).any(axis=(0, 1)))):
        qg = q[:, :, g]
        if rcl1 is None and (w := _ca1(qg, n, k, le_t)) is not None:
            rcl1 = (g,) + w
        if rcl2 is None and (w := _ca2(qg, n, or_t)) is not None:
            rcl2 = (g,) + w
    rcl3 = q & (le_t[:, None, :] | le_t[None, :, :])
    rcl4 = ~le_t.T & ~q.diagonal()
    rcl5 = q & ~q.transpose(1, 0, 2)
    witnesses = {
        "RCL1": rcl1,
        "RCL2": rcl2,
        "RCL3": _first(rcl3.transpose(2, 0, 1)) if rcl3.any() else None,
        "RCL4": _first(rcl4) if rcl4.any() else None,
        "RCL5": _first(rcl5.transpose(2, 0, 1)) if rcl5.any() else None,
    }
    return AxiomReport.of(witnesses)


# ---------------------------------------------------------------------------
# internal connectedness, algebraically


def internally_connected_algebraic(covering: CoveringRelation, a: int) -> bool:
    """True iff no pair of nonzero parts b, d with b join d = a has (b, d)
    covered by the complement of a.  Zero is internally connected: the
    quantification over nonzero parts is vacuous for it."""
    algebra = covering.algebra
    algebra._require(a)
    if a == 0:
        return True
    star = algebra.complement(a)
    v = covering.table
    b = a
    while b:  # nonzero submasks of a
        rest = a & ~b
        extra = b
        while True:  # d = rest | (submask of b), giving b | d == a
            d = rest | extra
            if d and v[b, d, star]:
                return False
            if extra == 0:
                break
            extra = (extra - 1) & b
        b = (b - 1) & a
    return True


# ---------------------------------------------------------------------------
# filters and ideals


@dataclass(frozen=True)
class FilterOrIdeal:
    """A filter (up-closed, meet-closed) or ideal (down-closed, join-closed)
    of a finite Boolean algebra.  Improper ones — the whole algebra — are
    allowed; emptiness is not."""

    algebra: FiniteBooleanAlgebra
    members: frozenset[int]
    kind: Literal["filter", "ideal"]

    def __post_init__(self) -> None:
        if self.kind not in ("filter", "ideal"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.members:
            raise ValueError(f"a {self.kind} must be nonempty")
        n = self.algebra.size
        for x in self.members:
            if not 0 <= x < n:
                raise ValueError(f"{x} is not an element mask")
        # A filter is the up-set of the meet g of its members, which holds
        # them all, so the members form one iff they number 2^(k - |g|); an
        # ideal is the down-set of the join j, 2^|j| elements.  Only a fault
        # runs the loops below, which name it.
        free = self.generator.bit_count()
        if self.kind == "filter":
            free = self.algebra.atom_count - free
        if len(self.members) == 1 << free:
            return
        if self.kind == "filter":
            for x in self.members:
                for y in range(n):
                    if x & ~y == 0 and y not in self.members:
                        raise ValueError(f"not up-closed: {x} in, superset {y} out")
            for x in self.members:
                for y in self.members:
                    if (x & y) not in self.members:
                        raise ValueError(f"not meet-closed: {x} and {y} in, {x & y} out")
        else:
            for x in self.members:
                for y in range(n):
                    if y & ~x == 0 and y not in self.members:
                        raise ValueError(f"not down-closed: {x} in, subset {y} out")
            for x in self.members:
                for y in self.members:
                    if (x | y) not in self.members:
                        raise ValueError(f"not join-closed: {x} and {y} in, {x | y} out")
        raise AssertionError(f"the size test rejected a {self.kind} that the loops accept")

    @cached_property
    def generator(self) -> int:
        """The principal generator: meet of a filter, join of an ideal."""
        return int(reduce(and_ if self.kind == "filter" else or_, self.members))

    @property
    def is_proper(self) -> bool:
        boundary = 0 if self.kind == "filter" else self.algebra.one
        return boundary not in self.members

    def __contains__(self, x: int) -> bool:
        return x in self.members


def principal_filter(algebra: FiniteBooleanAlgebra, g: int) -> FilterOrIdeal:
    algebra._require(g)
    members = frozenset(x for x in range(algebra.size) if g & ~x == 0)
    return FilterOrIdeal(algebra, members, "filter")


def maximal_filters(algebra: FiniteBooleanAlgebra) -> tuple[FilterOrIdeal, ...]:
    """The maximal proper filters, one per atom, ordered by atom index.

    Each candidate is checked to be a proper filter that cannot be
    extended: adding any outside element closes under meet to 0.
    """
    found = tuple(principal_filter(algebra, atom) for atom in algebra.atom_masks)
    for candidate in found:
        if not candidate.is_proper:
            raise AssertionError("candidate maximal filter is improper")
        inf = candidate.generator
        for x in range(algebra.size):
            if x not in candidate.members and inf & x != 0:
                raise AssertionError(f"filter at {inf} extends by {x} without collapsing")
    return found


# ---------------------------------------------------------------------------
# JSON documents: {"atoms": k, "covering": [[a, b, d], ...]} listing the true
# triples as atom-mask integers, or {"atoms": k, "covering_mode": "discrete"}.


def covering_from_document(doc: object, *, cap_elements: int | None = None) -> CoveringRelation:
    """Parse a covering document.  A malformed document names its first bad
    triple in input order; with ``cap_elements``, an algebra over the cap
    raises :class:`CapExceeded` before any table is allocated."""
    if not isinstance(doc, dict):
        raise DocumentError("covering document must be a JSON object")
    atoms = doc.get("atoms")
    if not isinstance(atoms, int) or isinstance(atoms, bool) or atoms < 1:
        raise DocumentError('"atoms" must be a positive integer')
    discrete = doc.get("covering_mode") == "discrete"
    if discrete and "covering" in doc:
        raise DocumentError('give either "covering" or "covering_mode", not both')
    if not discrete and "covering_mode" in doc:
        raise DocumentError(f'unknown covering_mode {doc["covering_mode"]!r}')
    triples = doc.get("covering")
    if not discrete and not isinstance(triples, list):
        raise DocumentError('"covering" must be an array of [a, b, d] triples')
    if cap_elements is not None:
        _check_cap(atoms, cap_elements)
    if discrete:
        return discrete_covering(atoms)
    return _covering_of_entries(atoms, _triple_entries(triples, atoms))


def _covering_of_entries(atoms: int, entries: np.ndarray) -> CoveringRelation:
    """The covering whose true triples are the rows (a, b, d) of ``entries``,
    all inside the algebra: one store at the flat indices (a·N + b)·N + d."""
    n = 1 << atoms
    table = np.zeros((n, n, n), dtype=bool)
    a, b, d = entries.T
    table.reshape(-1)[(a * n + b) * n + d] = True
    return CoveringRelation(FiniteBooleanAlgebra(atoms), table)


def _triple_entries(triples: list, atoms: int) -> np.ndarray:
    """The triples as a (T, 3) int64 array.  The checks run in bulk: every
    triple a list of three ints (bools are not ints here), and every entry
    inside the algebra.  When any of them fails, a loop in input order names
    the first bad triple."""
    n = 1 << atoms
    if set(map(type, triples)) <= {list} and set(map(len, triples)) <= {3}:
        flat = list(chain.from_iterable(triples))
        if set(map(type, flat)) <= {int}:
            try:
                entries = np.array(flat, dtype=np.int64)
            except OverflowError:  # beyond int64, so out of range
                entries = np.array([-1])
            if not len(entries) or (entries.min() >= 0 and entries.max() < n):
                return entries.reshape(-1, 3)
    for t in triples:
        if type(t) is not list or len(t) != 3 or not type(t[0]) is type(t[1]) is type(t[2]) is int:
            raise DocumentError(f"bad covering triple {t!r}")
        if not (0 <= t[0] < n and 0 <= t[1] < n and 0 <= t[2] < n):
            raise DocumentError(f"triple {t!r} out of range for a {atoms}-atom algebra")
    raise AssertionError("the bulk checks rejected triples that the loop accepts")


_JSON_SPACE = b" \t\n\r"
_PLAIN_HEAD = re.compile(  # {"atoms": k, "covering":
    (b"[" + _JSON_SPACE + b"]*").join([b"", rb"\{", b'"atoms"', b":", rb"([1-9][0-9]{0,2})", b",", b'"covering"', b":"])
)


def covering_from_json(raw: bytes, *, cap_elements: int) -> CoveringRelation | None:
    """The covering of a document that is exactly {"atoms": k, "covering":
    [[a, b, d], ...]}, read straight from its bytes; None for any other
    input, and over the cap, so that :func:`covering_from_document` parses
    it and reports any fault.  No input makes it raise.

    With whitespace dropped, the text outside the digits must spell "[",
    then "[,,]" joined by ",", then "]", with digits in each of the three
    slots of a triple.  The digit runs are counted before whitespace is
    dropped: there must be one per slot, so "1 2" is not read as 12.  A run
    with a leading zero, or longer than the largest element or above it,
    declines."""
    head = _PLAIN_HEAD.match(raw)
    body = raw.rstrip(_JSON_SPACE)
    if head is None or not body.endswith(b"}"):
        return None
    k = int(head[1])
    n = 1 << k
    if n > min(cap_elements, 1 << 20):  # past 2^20 a flat index overflows int64
        return None
    spaced = body[head.end() : -1]
    text = spaced.translate(None, _JSON_SPACE)
    marks = text.translate(None, b"0123456789")
    count = (len(marks) - 1) // 5
    if marks != b"[" + (b",[,,]" * count)[1:] + b"]":
        return None
    chars = np.frombuffer(text, dtype=np.uint8)
    digit, spaced_digit = (
        (c >= np.uint8(48)) & (c <= np.uint8(57)) for c in (chars, np.frombuffer(spaced, dtype=np.uint8))
    )
    runs = spaced_digit[0] + np.count_nonzero(spaced_digit[1:] > spaced_digit[:-1])
    at = np.flatnonzero(~digit)[1 : 5 * count + 1].reshape(count, 5)  # "[,,]" and the next mark
    firsts, ends = at[:, :3] + 1, at[:, 1:4] - 1
    lengths = ends - firsts + 1
    width = len(str(n - 1))
    if runs != 3 * count or (lengths < 1).any() or (lengths > width).any():
        return None
    if ((chars[firsts] == np.uint8(48)) & (lengths > 1)).any():
        return None
    values = np.zeros((count, 3), dtype=np.int64)
    for place in range(width):
        digits = chars[np.maximum(ends - place, firsts)].astype(np.int64) - 48
        values += np.where(lengths > place, digits, 0) * 10**place
    if (values >= n).any():
        return None
    return _covering_of_entries(k, values)


# ---------------------------------------------------------------------------
# the covering of a regular closed algebra, abstractly


@dataclass(frozen=True)
class TopologicalEca:
    """An extended contact algebra built from a regular closed algebra,
    together with the dictionary between element masks and point sets.

    ``element_sets[m]`` is the union of the atoms selected by mask m; the
    map is a Boolean isomorphism onto the regular closed carrier.
    """

    eca: ExtendedContactAlgebra
    source: RegularClosedAlgebra

    @property
    def covering(self) -> CoveringRelation:
        return self.eca.covering

    @property
    def element_sets(self) -> tuple[PointSet, ...]:
        return self.source.element_sets

    def mask_of(self, a: PointSet) -> int:
        return self.source.atom_mask(a)


def eca_from_rc(
    source: RegularClosedAlgebra, *, cap_elements: int = 64, verify: bool = True
) -> TopologicalEca:
    """The extended contact algebra of a regular closed algebra: element
    masks name joins of atoms, and (a, b) |- d holds when the plain
    intersection of the point sets of a and b is inside the point set of d.
    """
    k = len(source.atoms)
    check_carrier_cap(k, cap_elements)
    # A point lies in the set of mask m iff m meets the atoms through it, so
    # (a, b) |- d fails iff some point's atom signature meets a and b, not d.
    covering = covering_from_signatures(
        k,
        {
            sum(1 << i for i, atom in enumerate(source.atoms) if atom.bits >> x & 1)
            for x in range(source.topology.universe_size)
        },
    )
    if verify:
        eca = verified_eca(covering, cap_elements=cap_elements)
    else:
        eca = ExtendedContactAlgebra(covering, "ECA")
    return TopologicalEca(eca, source)
