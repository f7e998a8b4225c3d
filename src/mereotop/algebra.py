"""Covering relations on finite Boolean algebras and their axiom systems.

Elements of a finite Boolean algebra with k atoms are the integers
0..2^k-1 read as atom bitmasks, so join/meet/complement are bitwise
or/and/not and the order is bitmask inclusion.  A covering relation is a
dense boolean table of shape (N, N, N) with entry [a, b, d] true when the
pair (a, b) is covered by d; a contact relation is an (N, N) table, or
held as the relation R on atoms whose join-extension it is.

One generator, the join-extension of a relation on atoms over the atoms'
membership rows (two float32 products, the second in row chunks of about
4 MiB), makes every covering table, the table of a contact held as R, the
comparison in CA's closed form, and a parametrized frame's covering (see
frames).
``covering_from_slices`` is the table generated by atom slices R_f, an
(N, k, k) array, in O(k·N³) multiply-adds.  ``covering_from_signatures``
(and ``eca_from_rc``, the covering of the atom signatures of a space's
points, ``RegularClosedAlgebra.point_signatures``, and ``discrete_covering``, the
covering of the single atoms) holds only its family of atom sets, a
frozenset of ints, and generates its slices R_c(p, q) = no member inside
¬c holds both p and q, and its table from them, only when first read;
covering documents, ``covering_from_slices`` and a table handed to
``CoveringRelation`` give a table.
``signatures`` and ``atom_slices`` read the small data off either kind;
read off the slices of a family's covering, the family comes back closed,
so the round trip F → slices → family is F's closure.  Read off an
extended contact algebra, ``signatures`` is S*, whose members are the
points of a model of it: the type-1 and type-2 frames are built on them.  A finite table
satisfies the extended contact axioms exactly when every single atom is in
the family read off its slices and it is the covering of that family, and
the weak ones exactly when its atom slices grow with f and generate it.
That verdict is memoised on the covering, from one generation for a table
and from the members alone for a family (ECA iff every single atom is a
member, else WECA), so it serves check_eca, check_weca,
check_weca_consequences (six laws that follow from the weak axioms) and
check_relative_contact_laws (laws of every such covering of a family),
which return a shared all-passed report on a pass.
It is the only record of a covering's axiom system: derived_contact
refuses a covering whose verdict fails the extended axioms, and holds the
contact of an ECA as R, the atom pairs outside R_0, as k int rows: read
off a family's members (p and q touch iff some member holds both), or off
a table's slice R_0.  It generates its table only when first read.
check_ca passes a contact in closed form: the join-extension of its
restriction R to zero and the atoms, R symmetric, with an empty zero row
and a full atom diagonal.  A held contact is that extension by definition,
so only its rows are tested, in O(k²); a table is also compared with the
extension.  No passing check builds an N x N matrix, the atom slices of a
family or an operation or contact table: those serve the literal searches,
the embeddings and internally_connected_algebraic.
The contact axioms CA1-CA5 are the relative contact laws RCL1-RCL5 at
g = 0 (derived contact is "not covered by 0"), so the five laws are
written once and a contact that fails the closed form runs them as a
stack of one relation.  Otherwise each
axiom is decided by an exact reduced form where one exists: ECA1 by a
greatest-fixpoint fold of one-atom growth steps, in O(k·N³), each side's
steps on a copy laid out with the cover and that side's member leading;
ECA2 once per distinct covered set, on which a row's verdict depends;
CA1 with CA2, and RCL1 with RCL2 for every g, by equality with that
join-extension; WECA3, with no other axiom assumed, by each cover's slice
being a sublattice of B x B^op (one superset-and fold over pair words).
Only a failing verdict runs the literal search, which reports the
lexicographically first violating tuple — the one a direct nested loop
over ascending element values would find.  The ECA1, ECA2, CA1, WECA1,
WECA4 and CONS5/CONS6 searches read the failing (a, b) off their fold or
count and run on it alone; the WECA3 search tests all (d, e, f) of one
(a, b) at once and stops at the first (a, b) that has a hit.  A plain
triple-list covering document is read straight from its bytes, 4 KiB at
a time with whitespace dropped, and written straight into the table in
pieces of about 20 K characters cut at "],[", so that no temporary grows
with the document; any other goes through the JSON parser and
covering_from_document, which alone reports faults.  The checkers keep
their temporaries at k = 5 near a few hundred KiB as well (ECA2's counts
in chunks of 2^15, WECA3's word table in int16 and folded in place), so
that a run of ops reuses the heap it has instead of taking fresh pages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import chain
from operator import and_, index
from typing import Collection, Iterable, Literal

import numpy as np

from .topology import _PRODUCT_CHUNK_ELEMENTS, DocumentError, RegularClosedAlgebra, bit_matrix, check_cap, mask_indices

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
    def atom_masks(self) -> tuple[int, ...]:
        return tuple(1 << i for i in range(self.atom_count))

    def contains(self, a: int) -> bool:
        return 0 <= a < self.size

    def _require(self, *elements: int) -> None:
        for a in elements:
            if not self.contains(a):
                raise ValueError(f"{a} is not an element mask of a {self.atom_count}-atom algebra")


def _frozen_table(table: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A dense relation table as a read-only bool array of the given shape,
    always a copy: the caller's own array stays writable."""
    arr = np.array(table, dtype=bool, order="C")
    if arr.shape != shape:
        raise ValueError(f"table has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


def _owning(cls, algebra: FiniteBooleanAlgebra, **fields: object):
    """A relation on fields this module has just made and holds nowhere
    else: a C-contiguous bool table, frozen here, or a family's member set
    or a contact's atom rows, immutable already."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    relation = object.__new__(cls)
    relation.__dict__.update(algebra=algebra, **fields)
    return relation


@dataclass(frozen=True, eq=False)
class CoveringRelation:
    """A ternary relation (a, b) |- d over a finite Boolean algebra.  One
    built from a family of atom sets holds its members, and generates its
    atom slices and its table on first read."""

    algebra: FiniteBooleanAlgebra
    table: np.ndarray = field(repr=False)  # a repr must not generate a family's table
    _members = None  # the family a covering was built from: a frozenset of atom-set masks

    def __post_init__(self) -> None:
        n = self.algebra.size
        object.__setattr__(self, "table", _frozen_table(self.table, (n, n, n)))

    def __getattr__(self, name: str) -> np.ndarray:
        if name != "table" or self._members is None:
            raise AttributeError(name)
        self.__dict__["table"] = table = _covering_of_slices(self._slices, self.algebra.atom_count)
        table.setflags(write=False)
        return table

    def true_triples(self) -> list[tuple[int, int, int]]:
        return [tuple(int(x) for x in row) for row in np.argwhere(self.table)]

    @cached_property
    def _slices(self) -> np.ndarray:
        """The atom slices [f, p, q] (see atom_slices), read-only: generated
        from a family's members, or read off the table."""
        k = self.algebra.atom_count
        if self._members is None:
            atoms = _atom_matrices(k)[0][1:]
            slices = np.ascontiguousarray(self.table[atoms][:, atoms].transpose(2, 0, 1))
        else:
            slices = _slices_of_family(self._members, k)
        slices.setflags(write=False)
        return slices

    @cached_property
    def _strength(self) -> Strength | None:
        """The verdict "ECA", else "WECA", or None, from the atom slices and,
        for a table, at most one generation.  A WECA's slices grow with f and
        generate it (see covering_from_slices); an ECA is the covering of the
        family G read off its slices (see signatures), which holds every
        single atom.  The covering of G has G's slices, which grow with f, so
        only slices that differ from G's take the fold that tests growth.

        A family's covering v_F needs no generation, and no slices: it is a
        WECA, and an ECA iff G = cl(F) holds every single atom, that is iff
        F does, since the only nonempty set inside {p} is {p}.  Proof: its
        slices R_c(p, q) = "no σ ∈ F inside ¬c holds p and q" grow with c,
        and generate v_F, since σ meets a and b iff it holds an atom of each.  And v_F = v_G:
        G ⊇ F, and a τ ∈ G that meets a and b and misses c holds the atom
        pair it meets them at in some σ ∈ F inside τ, which does the same.
        So v_F is the covering of G, and the paragraph above decides it."""
        k = self.algebra.atom_count
        if self._members is not None:
            return "ECA" if all(1 << p in self._members for p in range(k)) else "WECA"
        slices = self._slices
        family = _family_of_slices(slices, k)
        singletons = family[_atom_matrices(k)[0][1:]].all()
        closed = (slices == _slices_of_family(np.flatnonzero(family), k)).all()
        grows = closed or not (_fold(slices, 0, k, subsets=True) & ~slices).any()
        if not grows or not (self.table == _covering_of_slices(slices, k)).all():
            return None
        return "ECA" if closed and singletons else "WECA"


@dataclass(frozen=True, eq=False)
class ContactRelation:
    """A binary contact relation over a finite Boolean algebra.  One held as
    a relation on atoms generates its table, the join-extension, on first
    read."""

    algebra: FiniteBooleanAlgebra
    table: np.ndarray = field(repr=False)  # a repr must not generate a held contact's table
    _atoms = None  # R as k int rows, bit q of row p when atoms p and q are in contact, if held as R

    def __post_init__(self) -> None:
        n = self.algebra.size
        object.__setattr__(self, "table", _frozen_table(self.table, (n, n)))

    def __getattr__(self, name: str) -> np.ndarray:
        if name != "table" or self._atoms is None:
            raise AttributeError(name)
        k = self.algebra.atom_count
        table = _join_extension(_atom_matrices(k)[2], bit_matrix(k, self._atoms))
        self.__dict__["table"] = table = np.logical_not(table, out=table)
        table.setflags(write=False)
        return table


def discrete_covering(atom_count: int) -> CoveringRelation:
    """The covering (a, b) |- d iff a meet b <= d (contact = overlap): the
    covering of the single atoms, whose table is generated on first read."""
    return covering_from_signatures(atom_count, [1 << i for i in range(atom_count)])


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


_PASSED = {  # the report of a table that passes a whole system, shared (frozen)
    system: AxiomReport.of(dict.fromkeys(f"{system}{i}" for i in range(1, count + 1)))
    for system, count in (("CA", 5), ("ECA", 5), ("WECA", 4), ("CONS", 6), ("RCL", 5))
}


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
    table: np.ndarray,
    axis: int,
    bits: int,
    op: np.ufunc = np.bitwise_or,
    *,
    subsets: bool = False,
    copy: bool = True,
) -> np.ndarray:
    """out[.., x, ..] = op of table over all supersets y of x along axis (over
    all subsets with ``subsets``), for x of ``bits`` bits: one in-place pass
    per bit, pairing each x without the bit with x with it.  Without
    ``copy`` the passes run on table itself."""
    out = table.copy() if copy else table
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


def _first(viol: np.ndarray) -> tuple[int, ...] | None:
    """Lexicographically first true index of a boolean array, or None."""
    at = int(viol.argmax())  # the first true entry in C order, or 0 if none
    return tuple(int(x) for x in np.unravel_index(at, viol.shape)) if viol.flat[at] else None


# ---------------------------------------------------------------------------
# the generator: atom slices R_f, and the families of atom sets whose
# coverings they generate


@lru_cache(maxsize=None)
def _atom_matrices(atom_count: int) -> tuple[np.ndarray, ...]:
    """(base, below, under, pairs), read-only: base = zero and the atom
    masks; below[x, i] = 1 when base[i] is below x, (N, k + 1) float32, and
    under the same without zero; pairs[σ, p, q] = σ holds atoms p and q."""
    base = np.array([0] + [1 << i for i in range(atom_count)])
    held = np.arange(1 << atom_count)[:, None] & base == base
    under = held[:, 1:].astype(np.float32)
    out = (base, held.astype(np.float32), under, held[:, 1:, None] & held[:, None, 1:])
    for arr in out:
        arr.setflags(write=False)
    return out


def _slices_of_family(members: Collection[int], k: int) -> np.ndarray:
    """The atom slices [c, p, q] of the covering of the family ``members``,
    atom sets as int masks: R_c(p, q) iff no member inside the complement of
    c holds both p and q.  One product of "σ inside ¬c", N x |F| (a count of
    shared atoms, zero), with the members' atom pairs counts those members
    (exactly: at most |F| of them).  No N x N matrix is made."""
    rows = np.fromiter(members, dtype=np.intp, count=len(members))
    _, _, under, pairs = _atom_matrices(k)
    outside = (under @ under[rows].T == 0).astype(np.float32)  # [c, σ]: σ inside ¬c
    return (outside @ pairs[rows].reshape(-1, k * k).astype(np.float32) == 0).reshape(1 << k, k, k)


def _family_of_slices(slices: np.ndarray, k: int) -> np.ndarray:
    """flags[σ] (flags[0] always holds): no pair of atoms of σ, one atom
    twice allowed, is covered by the complement of σ, slice N - 1 - σ."""
    return ~(slices[::-1] & _atom_matrices(k)[3]).any(axis=(1, 2))


def _join_extension(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """out[a, b, ...] = no p of row a and q of row b have r[p, q, ...], for
    0/1 float32 membership rows [a, p] and a bool relation r (P x P, with
    any further axes).  Two float32 products count those pairs (exactly: at
    most P² of them), over the q of b and then over the p of a, the second
    in chunks of rows of about 4 MiB.  Every covering table, derived contact
    and CA's closed form is this extension of a relation on atoms."""
    m, p = rows.shape
    by_b = rows @ r.reshape(p, p, -1).astype(np.float32, order="C")  # [p, b, ...]
    width = by_b.shape[1] * by_b.shape[2]
    by_b = by_b.reshape(p, width)
    out = np.empty((m, width), dtype=bool)
    step = max(1, _PRODUCT_CHUNK_ELEMENTS // width)
    for lo in range(0, m, step):
        out[lo : lo + step] = rows[lo : lo + step] @ by_b == 0
    return out.reshape(m, m, *r.shape[2:])


def _covering_of_slices(slices: np.ndarray, k: int) -> np.ndarray:
    """The table generated by slices [f, p, q], in (a, b, f) layout: (a, b) |- f
    iff no atom pair under (a, b) lies outside R_f."""
    return _join_extension(_atom_matrices(k)[2], (~slices).transpose(1, 2, 0))


def signatures(covering: CoveringRelation) -> tuple[int, ...]:
    """The nonempty atom sets σ such that no pair of atoms of σ is covered
    by the complement of σ, as ascending masks.  On a table that is
    antitone in the pair and monotone in the cover (WECA1 and WECA4, which
    the covering of every family satisfies) that is S*, the sets σ such
    that no covered (a, b, c) has σ meeting a and b and missing c.  On
    other tables it can be a strict superset of S*."""
    flags = _family_of_slices(covering._slices, covering.algebra.atom_count)
    return tuple((np.flatnonzero(flags[1:]) + 1).tolist())


def covering_from_signatures(atom_count: int, family: Iterable[int]) -> CoveringRelation:
    """The covering of a family of atom sets: (a, b) |- c iff no member of
    the family meets a and b and misses c.

    A table passes the extended contact axioms iff it is the covering of
    its own S* and every single atom is in S*.  That is the finite
    representation theorem: σ is the set of atoms whose closures hold a
    point of the model, and a point lies in the region a iff σ meets a.

    It holds only the family's members, a frozenset of ints, which give its
    verdict (see CoveringRelation._strength) and its derived contact.  Its
    atom slices (N·k² bools, one product) are generated only when first
    read: by signatures, atom_slices, a parametrized frame, or an embedding
    the family gate does not confirm.  The N³ table is generated from them
    only when first read: by a failing checker's literal search,
    verify_embedding's tabulated fallback (parametrized frames, and frames
    whose slices do not confirm covering), internally_connected_algebraic
    (c° off its closed form), or true_triples (``rc --verbose``).  A
    member must be an integer (a NumPy integer will do, a bool will not)
    inside the algebra; the first that is not raises ValueError."""
    algebra = FiniteBooleanAlgebra(atom_count)
    return _owning(CoveringRelation, algebra, _members=frozenset(_element(algebra, x) for x in family))


def _element(algebra: FiniteBooleanAlgebra, x: object) -> int:
    """x as the Python int of an element of the algebra: an integer,
    NumPy's included, that is not a bool."""
    try:
        mask = None if isinstance(x, (bool, np.bool_)) else index(x)
    except TypeError:
        mask = None
    if mask is None:
        raise ValueError(f"{x!r} is not an element mask of a {algebra.atom_count}-atom algebra")
    algebra._require(mask)
    return mask


def atom_slices(covering: CoveringRelation) -> np.ndarray:
    """R_f(p, q) = (atom p, atom q) |- f, as a read-only (N, k, k) bool array
    [f, p, q], memoised on the covering: generated from a family's members,
    or read off the table."""
    return covering._slices


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
    return _owning(CoveringRelation, algebra, table=_covering_of_slices(slices, atom_count))


# ---------------------------------------------------------------------------
# contact axioms


def _ca12_mismatch(c: np.ndarray, k: int) -> np.ndarray:
    """Where c (over axes 0 and 1) differs from the join-extension of its
    restriction R to zero and the atoms: nowhere iff CA1 and CA2 hold.  The
    zero is needed, since the all-true relation passes both.  The extension
    is "some pair under (a, b) in R", so c differs where it equals "none"."""
    base, below = _atom_matrices(k)[:2]
    none = _join_extension(below, c[base][:, base])
    return np.equal(none, c, out=none)


def _ca1(c: np.ndarray, n: int, k: int, le_t: np.ndarray) -> tuple | None:
    """CA1's lex-first witness, or None.  (a, b) fails iff a C b and some
    d >= a, e >= b are not in contact, an or over supersets of ~c along
    each axis, so only the first failing pair runs the literal d search."""
    fails = c & _fold(_fold(~c, 0, k), 1, k)
    if not fails.any():
        return None
    a, b = _first(fails)
    for d in range(n):
        if a & ~d:
            continue
        es = le_t[b] & ~c[d]
        if es.any():
            return (a, b, d, int(np.flatnonzero(es)[0]))
    return None


def _ca2(c: np.ndarray, or_t: np.ndarray) -> tuple | None:
    premise = c[or_t[:, None, :, None], or_t[None, :, None, :]]
    conclusion = (
        c[:, :, None, None]
        | c[:, None, None, :]
        | c.T[None, :, :, None]
        | c[None, None, :, :]
    )
    return _first(premise & ~conclusion)


def _contact_laws(q: np.ndarray, k: int) -> tuple[tuple | None, ...]:
    """The lex-first witness, g first, of each of the five laws of contact
    relative to g, for a stack q[a, b, g] of G relations (g < G):
    monotonicity, distribution over joins, no contact for a part of g,
    reflexivity outside g, and symmetry.  Laws 1 and 2 run their literal
    search only at the g where q differs from the join-extension of its
    restriction to zero and the atoms; laws 3-5 are one array each."""
    n, _, _, or_t, le_t = _tables(k)
    part = le_t[:, : q.shape[2]]  # [a, g]: a is a part of g
    law1 = law2 = None
    for g in map(int, np.flatnonzero(_ca12_mismatch(q, k).any(axis=(0, 1)))):
        qg = q[:, :, g]
        if law1 is None and (w := _ca1(qg, n, k, le_t)) is not None:
            law1 = (g,) + w
        if law2 is None and (w := _ca2(qg, or_t)) is not None:
            law2 = (g,) + w
    law3 = q & (part[:, None, :] | part[None, :, :])
    law4 = ~part.T & ~q.diagonal()
    law5 = q & ~q.transpose(1, 0, 2)
    return law1, law2, _first(law3.transpose(2, 0, 1)), _first(law4), _first(law5.transpose(2, 0, 1))


def _rows_of(r: np.ndarray) -> tuple[int, ...]:
    """The rows of a k x k bool relation r[p, q] as int masks, bit q of row p."""
    return tuple((r @ (1 << np.arange(len(r)))).tolist())


def check_ca(contact: ContactRelation) -> AxiomReport:
    """Check the five contact axioms: monotonicity in both arguments,
    distribution over joins, no contact with zero, reflexivity away from
    zero, and symmetry.  They are the laws of contact relative to g (see
    check_relative_contact_laws) at g = 0, since a part of 0 is 0 and a
    region outside 0 is nonzero.

    All five hold iff c is the join-extension of its restriction R to zero
    and the atoms and R is symmetric, with an empty zero row and every atom
    in contact with itself.  A contact held as R (see derived_contact) is
    its extension by definition, with an empty zero row, so it is decided
    on R's k int rows alone, in O(k²), and its table is not read.  A table
    is first compared with the extension of its restriction.  Only a
    relation that fails this closed form runs the laws on its table, as a
    stack of one relation, its witnesses without g.  It takes no element
    cap (see check_eca)."""
    k = contact.algebra.atom_count
    rows = contact._atoms
    if rows is None:
        c = contact.table
        base = _atom_matrices(k)[0]
        if not _ca12_mismatch(c, k).any() and not c[0, base].any() and not c[base, 0].any():
            rows = _rows_of(c[base[1:]][:, base[1:]])
    # R symmetric, and every atom in contact with itself
    if rows is not None and all(
        row >> p & 1 and all(row >> q & 1 == rows[q] >> p & 1 for q in range(p)) for p, row in enumerate(rows)
    ):
        return _PASSED["CA"]
    laws = _contact_laws(contact.table[:, :, None], k)
    return AxiomReport.of({f"CA{i}": None if w is None else w[1:] for i, w in enumerate(laws, 1)})


# ---------------------------------------------------------------------------
# extended contact axioms


def _eca1(v: np.ndarray, n: int, k: int, or_t: np.ndarray) -> tuple | None:
    """ECA1's lex-first witness, or None when it holds.

    safe[a, b, f] = v[a|d, b|e, d|e|f] for every d and e, so ECA1 holds iff
    safe == v (d = e = 0 gives safe <= v).  A growth is a composition of
    one-atom steps, so safe is a greatest fixpoint reached in 2k in-place
    steps: for atom p, safe[a, b, f] &= safe[a|p, b, f|p] on the a side and
    the same on the b side.  A step reads only entries with p in both the
    grown member and the cover, which it never writes, so it runs on paired
    reshape views.  The two sides commute, so all a-side steps run on an
    [f, a, b] copy and then all b-side steps on an [f, b, a] copy, where
    every step pairs contiguous runs of at least N entries.  The first true
    (a, b) of v & ~safe is the failing pair, and only it runs the literal
    (d, e, f) search, one d at a time."""
    safe = np.ascontiguousarray(v.transpose(2, 0, 1))
    for side in range(2):
        if side:
            safe = np.ascontiguousarray(safe.transpose(0, 2, 1))
        for bit in range(k):
            split = (n >> bit + 1, 2, 1 << bit)
            pairs = safe.reshape(*split, *split, n).transpose(4, 1, 0, 2, 3, 5, 6)  # [p in member, p in cover]
            pairs[0] &= pairs[1, 1]
            pairs[1, 0] &= pairs[1, 1]
    failing = (v & ~safe.transpose(2, 1, 0)).any(axis=2)
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
    """ECA2's lex-first witness, or None.  A row (a, b) fails iff two covers
    in its covered set C reach an f outside C, which depends on C alone.
    Rows covered by none or all d cannot fail; of the rest only the first
    row with each distinct C is tested (keyed by its packed bits), in lex
    order, 2^15 counts (or 16 rows) at a time, through a float32 matmul
    counting the e with e in C and (d, e) |- f.  The first row that reaches
    an uncovered f is the first failing row, and runs the literal search."""
    pair_to_d = v.reshape(n * n, n)
    rows = np.flatnonzero(pair_to_d.any(axis=1) & ~pair_to_d.all(axis=1))
    if not len(rows):
        return None
    packed = np.packbits(pair_to_d[rows], axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    rows = rows[np.sort(np.unique(keys, return_index=True)[1])]
    d_by_ef = np.ascontiguousarray(v.transpose(1, 0, 2)).reshape(n, n * n).astype(np.float32)
    step = max(16, (1 << 15) // (n * n))  # 128 KiB of float32 counts up to N = 32
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
    return _first((le_t[:, None, :] | le_t[None, :, :]) & ~v)


def _eca4(v: np.ndarray, and_t: np.ndarray, le_t: np.ndarray) -> tuple | None:
    return _first(v & ~le_t[and_t])


def _eca5(v: np.ndarray) -> tuple | None:
    return _first(v & ~v.transpose(1, 0, 2))


def check_eca(covering: CoveringRelation) -> AxiomReport:
    """Check the five extended contact axioms: growing both members while
    adding the growth to the cover, transitivity of covering through a
    covered pair, covering by anything above either member, covered pairs
    meet inside the cover, and symmetry.

    Like every checker here it takes no element cap: it runs on whatever
    covering the caller built, and the readers (covering_from_document,
    covering_from_json, rc_algebra) bound the size of input.  A family's
    covering generates its N³ table only for a failing literal search, and
    no command builds a failing one: discrete coverings and the coverings
    of spaces are ECAs."""
    k = covering.algebra.atom_count
    if covering._strength == "ECA":
        return _PASSED["ECA"]
    n, _, and_t, or_t, le_t = _tables(k)
    v = covering.table
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


def _weca1(v: np.ndarray, n: int, k: int) -> tuple | None:
    """WECA1's lex-first witness, or None.  (a, b) fails at f iff f covers
    some (d, e) with d >= a, e >= b but not (a, b), an or over supersets
    along each member axis, so only the first failing pair runs the (d, e)
    search."""
    failing = (_fold(_fold(v, 0, k), 1, k) & ~v).any(axis=2)
    if not failing.any():
        return None
    a, b = _first(failing)
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
    viol = ~v
    viol[1:, 1:] = False  # only pairs with a zero member must be covered
    return _first(viol)


def _weca3_holds(v: np.ndarray, k: int) -> bool:
    """WECA3 iff each slice S_f = {(a, b) : (a, b) |- f} is a sublattice of
    B x B^op, closed under the meet (a&d, b|e) and the join (a|d, b&e).

    As the 2k-bit word a << k | ~b a pair meets by bitwise and, and a set of
    words is and-closed iff, for each word x, the and of the members above x
    (when there are any) is a member.  One superset-and fold gives those
    ands, starting non-members at -1: that sentinel, with the sign bit set,
    survives only where no member lies above x, and picks an appended
    all-true row.  Complementing both members swaps meet and join, so the
    join test is the same on the reversed words.  The words take int16 up
    to k = 7, and their table is folded in place."""
    bits = 2 * k
    members = v[:, ::-1].reshape(1 << bits, -1)  # [a << k | ~b, f] = v[a, b, f]
    members = np.concatenate([members, members[::-1]], axis=1)
    words = np.arange(1 << bits, dtype=np.int16 if bits < 16 else np.int32)[:, None]
    ands = _fold(np.where(members, words, -1), 0, bits, np.bitwise_and, copy=False)
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
    failing = (grown.transpose(1, 2, 0) & ~v).any(axis=2)
    if not failing.any():
        return None
    a, b = _first(failing)
    not_f = ~v[a, b]
    for d in range(n):
        if not v[a, b, d]:
            continue
        fs = le_t[d] & not_f
        if fs.any():
            return (a, b, d, int(np.flatnonzero(fs)[0]))
    return None


def check_weca(covering: CoveringRelation) -> AxiomReport:
    """Check the four weak extended contact axioms: antitonicity in the
    covered pair, coverage of pairs with an empty member, the two mixed
    meet/join combinations, and monotonicity in the cover.  It takes no
    element cap (see check_eca); a family's covering always passes."""
    k = covering.algebra.atom_count
    if covering._strength is not None:
        return _PASSED["WECA"]
    n, _, and_t, or_t, le_t = _tables(k)
    v = covering.table
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


def check_weca_consequences(covering: CoveringRelation) -> AxiomReport:
    """Check six consequences of the weak axioms: the zero pairs are covered
    by everything, covering is additive in each member separately, and it is
    antitone in each member separately.  All six follow from the weak
    axioms, so a table whose verdict is WECA or ECA passes them, a family's
    covering among them.  It takes no element cap (see check_eca)."""
    k = covering.algebra.atom_count
    if covering._strength is not None:
        return _PASSED["CONS"]
    n, _, _, or_t, _ = _tables(k)
    v = covering.table
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


def derived_contact(covering: CoveringRelation) -> ContactRelation:
    """Contact of an extended contact algebra: a and b are in contact when
    (a, b) is not covered by zero.  Only the extended contact axioms
    guarantee the contact axioms, so a table whose verdict is not ECA is
    rejected.  An ECA is generated by its slices, so the contact is the
    join-extension of R, the atom pairs outside R_0: it holds R as k int
    rows, and generates its N x N table only when first read, by a failing
    check_ca or a caller.  In the covering of a family F every member lies
    inside ¬0, so R_0(p, q) says that no member holds both p and q: p and q
    touch iff some member holds both, and R is read off the members, with
    no slices.  A table's R is read off its slice R_0.  No covering table
    is read."""
    if covering._strength != "ECA":
        raise ValueError("derived contact needs the full extended contact axioms")
    if covering._members is None:
        rows = _rows_of(~covering._slices[0])
    else:
        touch = [0] * covering.algebra.atom_count
        for sigma in covering._members:
            for p in mask_indices(sigma):
                touch[p] |= sigma
        rows = tuple(touch)
    return _owning(ContactRelation, covering.algebra, _atoms=rows)


def check_relative_contact_laws(covering: CoveringRelation) -> AxiomReport:
    """Check, for every region g, the five laws of contact relative to g:
    monotonicity, distribution over joins, no contact for parts of g,
    reflexivity outside g, and symmetry.  Witnesses carry g first.

    A table whose verdict is ECA is the covering of a family F that holds
    every single atom, where a and b are in contact relative to g iff some
    σ in F meets a and b and misses g.  So it passes: RCL1 is antitonicity;
    RCL2 holds because "some σ meets a and b | d and misses g" splits over
    the join; RCL3 because a σ that meets a <= g meets g; RCL4 by the
    singleton of an atom in a & ~g; RCL5 is symmetry.  It takes no element
    cap (see check_eca)."""
    if covering._strength == "ECA":
        return _PASSED["RCL"]
    k = covering.algebra.atom_count
    laws = _contact_laws(~covering.table, k)  # [a, b, g]: a and b in contact relative to g
    return AxiomReport.of({f"RCL{i}": w for i, w in enumerate(laws, 1)})


# ---------------------------------------------------------------------------
# internal connectedness, algebraically


def internally_connected_algebraic(covering: CoveringRelation) -> tuple[bool, ...]:
    """For every element a, whether no pair of nonzero parts b, d with
    b join d = a has (b, d) covered by the complement of a.  Zero is
    internally connected: the quantification over nonzero parts is vacuous
    for it.

    Every pair (b, d) of nonzero elements is such a pair for exactly one a,
    namely b | d, so one gather reads v[b, d, ~(b | d)] for all pairs and
    one scatter by b | d marks the elements some pair splits.
    """
    n, e, _, or_t, _ = _tables(covering.algebra.atom_count)
    split = covering.table[e[:, None], e, n - 1 - or_t]
    split[0] = split[:, 0] = False
    disconnected = np.zeros(n, dtype=bool)
    disconnected[or_t[split]] = True
    return tuple((~disconnected).tolist())


# ---------------------------------------------------------------------------
# filters


@dataclass(frozen=True)
class Filter:
    """A filter (up-closed, meet-closed) of a finite Boolean algebra.  The
    improper one — the whole algebra — is allowed; emptiness is not."""

    algebra: FiniteBooleanAlgebra
    members: frozenset[int]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a filter must be nonempty")
        n = self.algebra.size
        for x in self.members:
            if not 0 <= x < n:
                raise ValueError(f"{x} is not an element mask")
        # A filter is the up-set of the meet g of its members, which holds
        # them all, so the members form one iff they number 2^(k - |g|).
        # Only a fault runs the loops below, which name it.
        if len(self.members) == 1 << (self.algebra.atom_count - self.generator.bit_count()):
            return
        for x in self.members:
            for y in range(n):
                if x & ~y == 0 and y not in self.members:
                    raise ValueError(f"not up-closed: {x} in, superset {y} out")
        for x in self.members:
            for y in self.members:
                if (x & y) not in self.members:
                    raise ValueError(f"not meet-closed: {x} and {y} in, {x & y} out")
        raise AssertionError("the size test rejected a filter that the loops accept")

    @cached_property
    def generator(self) -> int:
        """The principal generator: the meet of the members."""
        return int(reduce(and_, self.members))

    @property
    def is_proper(self) -> bool:
        return 0 not in self.members

    def __contains__(self, x: int) -> bool:
        return x in self.members


def principal_filter(algebra: FiniteBooleanAlgebra, g: int) -> Filter:
    algebra._require(g)
    members = frozenset(x for x in range(algebra.size) if g & ~x == 0)
    return Filter(algebra, members)


def maximal_filters(algebra: FiniteBooleanAlgebra) -> tuple[Filter, ...]:
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
        check_cap(atoms, cap_elements)
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
    return _owning(CoveringRelation, FiniteBooleanAlgebra(atoms), table=table)


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
    input, so that :func:`covering_from_document` parses it and reports any
    fault.  A document that opens with that head, a k over the cap and no
    key after it raises :class:`CapExceeded` from the head alone, before
    the rest is read, so refusing it costs no parse of the document.

    With whitespace dropped, the text outside the digits must spell "[",
    then "[,,]" joined by ",", then "]", with digits in each of the three
    slots of a triple.  The digit runs are counted before whitespace is
    dropped: there must be one per slot, so "1 2" is not read as 12.  A run
    with a leading zero, or longer than the largest element or above it,
    declines.  The document is read _WINDOW bytes at a time, whitespace
    dropped from each; once _PIECE characters are in, the text up to the
    last "],[" is stored straight into the table.  So no temporary, the
    whitespace-free text included, grows with the size of the document:
    an op's peak stays near the document and the table, and glibc serves
    the op from the heap it already has, with no fresh pages."""
    head = _PLAIN_HEAD.match(raw)
    if head is None:
        return None
    k = int(head[1])
    n = 1 << k
    if n > min(cap_elements, 1 << 20):  # past 2^20 a flat index overflows int64
        # with no key after the head the JSON reader would read this k too;
        # a later "atoms" key would replace it
        if raw.find(b'"', head.end()) < 0:
            check_cap(k, cap_elements)
        return None
    table = np.zeros((n, n, n), dtype=bool)
    width = len(str(n - 1))
    count = 0
    rest = b""  # whitespace-free text not read yet, from the mark before its first triple
    for lo in range(head.end(), len(raw), _WINDOW):
        rest += raw[lo : lo + _WINDOW].translate(None, _JSON_SPACE)
        if not count and rest[:1] not in (b"", b"["):
            return None
        if len(rest) < _PIECE or lo + _WINDOW >= len(raw):  # the last piece takes the last window
            continue
        seam = rest.rfind(b"],[") + 1  # the comma of the last seam
        if not seam:  # a plain document has a seam every triple
            return None
        read = _read_triples(rest, seam + 1, n, width, table.reshape(-1))
        if read is None:
            return None
        count, rest = count + read, rest[seam:]
    if not rest.endswith(b"]}"):
        return None
    if rest != b"[]}":
        read = _read_triples(rest, len(rest) - 1, n, width, table.reshape(-1))
        if read is None:
            return None
        count += read
    if _digit_runs(raw) != 3 * count + 1:  # and the run of k
        return None
    return _owning(CoveringRelation, FiniteBooleanAlgebra(k), table=table)


_PIECE, _WINDOW = 20_000, 4_096
# A piece is cut once _PIECE characters are read, and the last piece takes
# the last window too, so a piece of a plain document holds less than
# _PIECE + _WINDOW + 27 characters, at most (_PIECE + _WINDOW + 27) / 8
# triples, each 8 characters or more with its comma.  Its temporaries peak
# near 10 bytes a character, while the int64 positions of its marks live.
_MOST = (_PIECE + _WINDOW) // 8 + 4
_MARKS = np.frombuffer(b"[,,]," * _MOST, dtype=np.uint8)
_SHORTEST = np.tile(np.array([1, 2, 2, 2, 1], dtype=np.int32), _MOST)  # mark to mark: every slot holds a digit


def _read_triples(text: bytes, stop: int, n: int, width: int, flat: np.ndarray) -> int | None:
    """Store the triples of the piece text[:stop] of whitespace-free text, a
    mark, then "[a,b,d]" joined by ",", then a mark, at their flat indices
    in an N-element algebra's table; return how many there were, or None
    unless every slot holds a number of at most ``width`` digits, without a
    leading zero, below N.  The number ending before each of a triple's
    marks 2 to 4 is summed from the ``width`` places before it, each
    clamped to the mark before."""
    chars = np.frombuffer(text, dtype=np.uint8, count=stop)
    digits = chars - np.uint8(48)
    mark = digits > 9
    if (mark[:-2] & (digits[1:-1] == 0) & ~mark[2:]).any():  # a 0 between a mark and a digit
        return None
    at = np.flatnonzero(mark)
    count = len(at) // 5
    if not 0 < count <= _MOST or len(at) != 5 * count + 1 or (chars[at[1:-1]] != _MARKS[: len(at) - 2]).any():
        return None
    spans = np.subtract(at[1:], at[:-1], dtype=np.int32)
    if spans.max() > width + 1 or (spans < _SHORTEST[: len(spans)]).any():
        return None
    del spans
    digits *= ~mark
    del mark
    marks = at[1:].reshape(count, 5)  # "[", ",", ",", "]" and the mark after
    ends = marks[:, 1:4] - 1  # the last place of a, b and d, then each place before
    before = marks[:, :3] if width > 2 else None  # one place back is a digit or the zeroed mark
    del at, marks
    values = digits[ends].astype(np.int32)
    for place in range(1, width):
        ends -= 1
        if place > 1:
            np.maximum(ends, before, out=ends)
        values += digits[ends].astype(np.int32) * 10**place
    if values.max() >= n:
        return None
    # past N = 1024, N³ needs int64
    flat[(values[:, 0].astype(np.int64) * n + values[:, 1]) * n + values[:, 2]] = True
    return count


def _digit_runs(raw: bytes) -> int:
    """The number of digits of raw that follow a non-digit, counted _PIECE
    characters at a time, each window overlapping the next by one."""
    runs = 0
    for lo in range(0, len(raw), _PIECE):
        window = np.frombuffer(raw, dtype=np.uint8, count=min(_PIECE + 1, len(raw) - lo), offset=lo)
        digit = window - np.uint8(48) < 10
        runs += np.count_nonzero(digit[1:] > digit[:-1])
    return runs


# ---------------------------------------------------------------------------
# the covering of a regular closed algebra, abstractly


def eca_from_rc(source: RegularClosedAlgebra) -> CoveringRelation:
    """The extended contact algebra of a regular closed algebra: element
    mask m names the union of the atoms it selects, and (a, b) |- d holds
    when the plain intersection of the point sets of a and b is inside the
    point set of d.  Nothing is checked here, and no table is built: the
    covering is the covering of the points' atom signatures, and check_eca
    reads its verdict.  It takes no element cap: rc_algebra, given the cap,
    checks it where the space is read.
    """
    # A point lies in the set of mask m iff m meets its atom signature, so
    # (a, b) |- d fails iff some point's signature meets a and b, not d.
    return covering_from_signatures(len(source.atoms), set(source.point_signatures))
