"""Relational frames and the covering structure each puts on its powerset.

Three frame kinds over a finite world set W (worlds 0..|W|-1, subsets as
int bitmasks): parametrized frames, which attach a binary relation R(U) to
every subset U of W; equivalence frames of type 1 (one partition); and
equivalence frames of type 2 (two partitions, read through the composite
class R1(R2(s))).  Each induces a covering on subsets of W, and the
powerset with that covering is an extended contact algebra — weak for
parametrized frames, full for the equivalence kinds — which
:func:`powerset_eca` tabulates and verifies.  :func:`covering_table`
tabulates a frame's covering over any family of subsets (all of them for
the powerset, the images of an embedding for its verification).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    CoveringRelation,
    ExtendedContactAlgebra,
    FiniteBooleanAlgebra,
    verified_eca,
    verified_weca,
)
from .topology import CapExceeded, DocumentError, glued_components

DEFAULT_NAIVE_SUPERSET_CAP = 16
DEFAULT_ANTITONE_AUDIT_CAP = 8
DEFAULT_POWERSET_CAP = 5


def _require_masks(world_count: int, *masks: int) -> None:
    for m in masks:
        if not 0 <= m < (1 << world_count):
            raise ValueError(f"{m:#x} is not a subset mask over {world_count} worlds")


def _mask_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True, eq=False)
class ParametrizedFrame:
    """Worlds plus a relation R(U) for every subset U of the worlds.

    ``relation_map`` takes a subset mask and returns a |W| x |W| boolean
    matrix.  Frames whose relation shrinks as U grows may carry
    ``antitone_certified=True`` (set it only when the construction
    guarantees antitonicity; otherwise use :func:`pframe_antitone_audit`).
    """

    world_count: int
    relation_map: Callable[[int], np.ndarray]
    antitone_certified: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.world_count < 1:
            raise ValueError("a frame needs at least one world")

    @classmethod
    def from_tables(
        cls,
        world_count: int,
        tables: Sequence[np.ndarray],
        *,
        antitone_certified: bool = False,
    ) -> "ParametrizedFrame":
        if len(tables) != 1 << world_count:
            raise ValueError(
                f"need one relation per subset: {1 << world_count}, got {len(tables)}"
            )
        frozen = []
        for t in tables:
            arr = np.ascontiguousarray(np.asarray(t, dtype=bool))
            if arr.shape != (world_count, world_count):
                raise ValueError(f"relation table has shape {arr.shape}")
            arr.setflags(write=False)
            frozen.append(arr)
        return cls(world_count, lambda u: frozen[u], antitone_certified=antitone_certified)

    @classmethod
    def from_predicate(
        cls,
        world_count: int,
        predicate: Callable[[int, int, int], bool],
        *,
        antitone_certified: bool = False,
    ) -> "ParametrizedFrame":
        def build(u: int) -> np.ndarray:
            return np.array(
                [
                    [bool(predicate(u, s, t)) for t in range(world_count)]
                    for s in range(world_count)
                ],
                dtype=bool,
            )

        return cls(world_count, build, antitone_certified=antitone_certified)

    def relation(self, u_mask: int) -> np.ndarray:
        """R(U) as a read-only |W| x |W| boolean matrix (memoized)."""
        _require_masks(self.world_count, u_mask)
        cached = self._cache.get(u_mask)
        if cached is None:
            arr = np.ascontiguousarray(np.asarray(self.relation_map(u_mask), dtype=bool))
            if arr.shape != (self.world_count, self.world_count):
                raise ValueError(f"relation map returned shape {arr.shape}")
            arr.setflags(write=False)
            cached = self._cache[u_mask] = arr
        return cached


def pframe_antitone_audit(
    frame: ParametrizedFrame, *, cap_worlds: int = DEFAULT_ANTITONE_AUDIT_CAP
) -> bool:
    """Check by enumeration that growing U only shrinks R(U).

    It is enough to compare each U with its one-bit extensions; chains of
    single steps reach every superset.  The verdict is memoized.
    """
    verdict = frame._cache.get("antitone")
    if verdict is not None:
        return verdict
    if frame.world_count > cap_worlds:
        raise CapExceeded(
            f"{frame.world_count} worlds exceed the antitonicity audit cap {cap_worlds}"
        )
    verdict = True
    full = (1 << frame.world_count) - 1
    for u in range(full + 1):
        rel = frame.relation(u)
        for w in range(frame.world_count):
            bit = 1 << w
            if u & bit:
                continue
            if (frame.relation(u | bit) & ~rel).any():
                verdict = False
                break
        if not verdict:
            break
    frame._cache["antitone"] = verdict
    return verdict


def pframe_covering_naive(
    frame: ParametrizedFrame,
    a: int,
    b: int,
    d: int,
    *,
    cap_worlds: int = DEFAULT_NAIVE_SUPERSET_CAP,
) -> bool:
    """Literal covering: no R(U) with U containing d relates a point of a
    to a point of b.  Enumerates every superset of d."""
    _require_masks(frame.world_count, a, b, d)
    if frame.world_count > cap_worlds:
        raise CapExceeded(
            f"{frame.world_count} worlds exceed the superset-enumeration cap "
            f"{cap_worlds}; use pframe_covering_antitone on antitone frames"
        )
    rows = np.array(_mask_indices(a), dtype=np.intp)
    cols = np.array(_mask_indices(b), dtype=np.intp)
    if not len(rows) or not len(cols):
        return True
    grid = np.ix_(rows, cols)
    outside = ((1 << frame.world_count) - 1) & ~d
    extra = outside
    while True:
        if frame.relation(d | extra)[grid].any():
            return False
        if extra == 0:
            return True
        extra = (extra - 1) & outside


def _require_antitone(frame: ParametrizedFrame) -> None:
    if not frame.antitone_certified:
        if frame.world_count > DEFAULT_ANTITONE_AUDIT_CAP:
            raise ValueError(
                "antitonicity not certified and the frame is too large to audit"
            )
        if not pframe_antitone_audit(frame):
            raise ValueError("frame relation is not antitone; use pframe_covering_naive")


def pframe_covering_antitone(frame: ParametrizedFrame, a: int, b: int, d: int) -> bool:
    """Covering via the antitone shortcut: on frames where growing U only
    shrinks R(U), the quantifier over supersets of d collapses to R(d)
    itself.  Requires the certificate or a passing audit."""
    _require_masks(frame.world_count, a, b, d)
    _require_antitone(frame)
    rows = np.array(_mask_indices(a), dtype=np.intp)
    cols = np.array(_mask_indices(b), dtype=np.intp)
    if not len(rows) or not len(cols):
        return True
    return not frame.relation(d)[np.ix_(rows, cols)].any()


# ---------------------------------------------------------------------------
# equivalence frames


def _partition_masks(classes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(mask of each world's class, distinct class masks in first-seen order)."""
    by_id: dict[int, int] = {}
    for w, cid in enumerate(classes):
        by_id[cid] = by_id.get(cid, 0) | (1 << w)
    per_world = tuple(by_id[cid] for cid in classes)
    return per_world, tuple(dict.fromkeys(per_world))


@dataclass(frozen=True)
class EquivalenceFrame1:
    """Worlds with one equivalence relation, stored as a class id per world."""

    world_count: int
    classes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.world_count < 1:
            raise ValueError("a frame needs at least one world")
        if len(self.classes) != self.world_count:
            raise ValueError("need exactly one class id per world")

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _partition_masks(self.classes)

    def r_class(self, s: int) -> int:
        """Mask of the class of world s."""
        if not 0 <= s < self.world_count:
            raise ValueError(f"no world {s}")
        return self._masks[0][s]

    @property
    def distinct_class_masks(self) -> tuple[int, ...]:
        return self._masks[1]


@dataclass(frozen=True)
class EquivalenceFrame2:
    """Worlds with two equivalence relations; coverings read the composite
    class R1(R2(s)) — the union of the first relation's classes across the
    second relation's class of s."""

    world_count: int
    classes1: tuple[int, ...]
    classes2: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.world_count < 1:
            raise ValueError("a frame needs at least one world")
        if len(self.classes1) != self.world_count or len(self.classes2) != self.world_count:
            raise ValueError("need exactly one class id per world in each partition")

    @cached_property
    def _composite(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        masks1, _ = _partition_masks(self.classes1)
        _, distinct2 = _partition_masks(self.classes2)
        by_class2: dict[int, int] = {}
        for c2 in distinct2:
            union = 0
            for t in _mask_indices(c2):
                union |= masks1[t]
            if c2 & ~union:
                raise AssertionError("composite class lost a world of its own class")
            by_class2[c2] = union
        masks2, _ = _partition_masks(self.classes2)
        per_world = tuple(by_class2[masks2[s]] for s in range(self.world_count))
        return per_world, tuple(dict.fromkeys(per_world))

    @property
    def distinct_composite_masks(self) -> tuple[int, ...]:
        return self._composite[1]


def r1r2_class(frame: EquivalenceFrame2, s: int) -> int:
    """Mask of R1(R2(s)); always contains s."""
    if not 0 <= s < frame.world_count:
        raise ValueError(f"no world {s}")
    mask = frame._composite[0][s]
    if not mask >> s & 1:
        raise AssertionError("composite class must contain its own world")
    return mask


def frame1_covering(frame: EquivalenceFrame1, a: int, b: int, d: int) -> bool:
    """(a, b) is covered by d iff a ∩ b ⊆ d and every class meeting both a
    and b also meets d."""
    _require_masks(frame.world_count, a, b, d)
    if a & b & ~d:
        return False
    for m in frame.distinct_class_masks:
        if m & a and m & b and not m & d:
            return False
    return True


def frame2_covering(frame: EquivalenceFrame2, a: int, b: int, d: int) -> bool:
    """Like :func:`frame1_covering`, but quantifying over the composite
    classes R1(R2(s))."""
    _require_masks(frame.world_count, a, b, d)
    if a & b & ~d:
        return False
    for m in frame.distinct_composite_masks:
        if m & a and m & b and not m & d:
            return False
    return True


def frame2_internally_connected(frame: EquivalenceFrame2, s_mask: int) -> bool:
    """True iff no pair of nonempty parts B, D with B ∪ D = s_mask is
    covered by the complement of s_mask.

    Any such pair must be disjoint (the covering's inclusion conjunct meets
    s_mask against its complement), and a disjoint split is covered exactly
    when no composite class inside s_mask straddles it.  So the verdict is:
    the worlds of s_mask, glued along composite classes contained in
    s_mask, form at most one connected component.  The empty set has zero
    components and counts as connected.
    """
    _require_masks(frame.world_count, s_mask)
    return len(glued_components(s_mask, frame.distinct_composite_masks)) <= 1


def frame2_internally_connected_naive(
    frame: EquivalenceFrame2, s_mask: int, *, cap_size: int = 10
) -> bool:
    """Literal quantification over all splits of s_mask (exponential in its
    size); the component-based evaluator must agree with this."""
    _require_masks(frame.world_count, s_mask)
    if s_mask.bit_count() > cap_size:
        raise CapExceeded(
            f"split enumeration over {s_mask.bit_count()} worlds exceeds cap {cap_size}"
        )
    complement = ((1 << frame.world_count) - 1) & ~s_mask
    b = s_mask
    while b:
        rest = s_mask & ~b
        extra = b
        while True:
            d = rest | extra
            if d and frame2_covering(frame, b, d, complement):
                return False
            if extra == 0:
                break
            extra = (extra - 1) & b
        b = (b - 1) & s_mask
    return True


# ---------------------------------------------------------------------------
# contact induced by a reflexive symmetric point relation


def gv_contact(world_count: int, relation: np.ndarray, a: int, b: int) -> bool:
    """Contact from a reflexive symmetric relation: some point of a relates
    to some point of b."""
    _require_masks(world_count, a, b)
    rel = np.asarray(relation, dtype=bool)
    if rel.shape != (world_count, world_count):
        raise ValueError(f"relation has shape {rel.shape}")
    if not rel.diagonal().all():
        raise ValueError("relation must be reflexive")
    if (rel != rel.T).any():
        raise ValueError("relation must be symmetric")
    rows = np.array(_mask_indices(a), dtype=np.intp)
    cols = np.array(_mask_indices(b), dtype=np.intp)
    if not len(rows) or not len(cols):
        return False
    return bool(rel[np.ix_(rows, cols)].any())


# ---------------------------------------------------------------------------
# the covering tabulated over a family of subsets

_TABLE_CHUNK_ELEMENTS = 1 << 20  # float32 entries per chunk of rows: about 4 MiB


def _membership(world_count: int, masks: Sequence[int]) -> np.ndarray:
    """Row i holds the worlds of masks[i] as booleans.  Masks go through
    bytes, never a fixed-width integer, so any world count fits."""
    _require_masks(world_count, *masks)
    width = (world_count + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, bitorder="little")
    return bits[:, :world_count].astype(bool)


def _class_masks(frame: EquivalenceFrame1 | EquivalenceFrame2) -> tuple[int, ...]:
    if isinstance(frame, EquivalenceFrame1):
        return frame.distinct_class_masks
    if isinstance(frame, EquivalenceFrame2):
        return frame.distinct_composite_masks
    raise TypeError(f"not a frame: {type(frame).__name__}")


def _meets(frame: EquivalenceFrame1 | EquivalenceFrame2, masks: Sequence[int]) -> np.ndarray:
    """G: one column per world w ("w is in the subset") and one per class
    mask m ("the subset meets m"), duplicate columns dropped.  (a, b) is
    covered by d iff no column c has G[a, c] and G[b, c] but not G[d, c]:
    the world columns give a ∩ b ⊆ d, the class columns the rest of
    :func:`frame1_covering` / :func:`frame2_covering`."""
    members = _membership(frame.world_count, masks)
    classes = _membership(frame.world_count, _class_masks(frame))
    meets = members.astype(np.float32) @ classes.T.astype(np.float32) > 0
    columns = np.concatenate((members, meets), axis=1).T
    distinct = {column.tobytes(): column for column in columns}
    return np.array(list(distinct.values())).T


def covering_table(
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2,
    masks: Sequence[int],
) -> np.ndarray:
    """The frame's covering tabulated over the given subsets: entry
    [i, j, l] tells whether (masks[i], masks[j]) is covered by masks[l].

    Equivalence frames count, for every (i, j, l), the columns c of
    :func:`_meets` with G[i, c] ∧ G[j, c] ∧ ¬G[l, c] in one float32 matmul
    per chunk of i (exact: a count never exceeds the few columns of G).
    Antitone parametrized frames (certified or audited) use
    (a, b) ⊢ d ⟺ A[a] · R(d) · A[b]ᵀ = 0, with A the membership rows: one
    small matmul per l.
    """
    n = len(masks)
    table = np.empty((n, n, n), dtype=bool)
    if isinstance(frame, ParametrizedFrame):
        _require_antitone(frame)
        rows = _membership(frame.world_count, masks).astype(np.float32)
        for l, u in enumerate(masks):
            table[:, :, l] = rows @ frame.relation(u).astype(np.float32) @ rows.T == 0
        return table
    g = _meets(frame, masks).astype(np.float32)
    k = g.shape[1]
    missing = (1 - g).T
    step = max(1, _TABLE_CHUNK_ELEMENTS // (n * (n + k)))
    for lo in range(0, n, step):
        both = (g[lo : lo + step, None, :] * g[None, :, :]).reshape(-1, k)
        table[lo : lo + step] = (both @ missing).reshape(-1, n, n) == 0
    return table


def covering_entries(
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2,
    masks: Sequence[int],
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
) -> np.ndarray:
    """Entries [a[i], b[i], d[i]] of ``covering_table(frame, masks)`` for
    index arrays a, b, d, evaluated on the same rows without the table."""
    if isinstance(frame, ParametrizedFrame):
        _require_antitone(frame)
        rows = _membership(frame.world_count, masks).astype(np.float32)
        used, which = np.unique(d, return_inverse=True)
        w = frame.world_count
        rels = np.array([frame.relation(masks[i]) for i in used], np.float32)
        rels = rels.reshape(len(used), w, w)
        return np.einsum("is,ist,it->i", rows[a], rels[which], rows[b]) == 0
    g = _meets(frame, masks)
    return ~(g[a] & g[b] & ~g[d]).any(axis=1)


# ---------------------------------------------------------------------------
# the powerset algebra of a frame


@dataclass(frozen=True, eq=False)
class FrameAlgebra:
    """A frame together with its tabulated powerset extended contact
    algebra: elements are subsets of W (atoms = singleton worlds), zero is
    the empty set, complement and join are setwise, and the covering is the
    frame's."""

    frame: object
    eca: ExtendedContactAlgebra

    @property
    def covering(self) -> CoveringRelation:
        return self.eca.covering


def _parametrized_table(frame: ParametrizedFrame) -> np.ndarray:
    w = frame.world_count
    n = 1 << w
    table = np.ones((n, n, n), dtype=bool)
    full = n - 1
    for u in range(n):
        rel = frame.relation(u)
        rows_any = np.zeros((n, w), dtype=bool)
        for s in range(w):
            grow = (np.arange(n) >> s & 1) == 1
            rows_any[grow] |= rel[s]
        contact_u = np.zeros((n, n), dtype=bool)
        for t in range(w):
            grow = (np.arange(n) >> t & 1) == 1
            contact_u[:, grow] |= rows_any[:, t][:, None]
        sub = u
        while True:
            table[:, :, sub] &= ~contact_u
            if sub == 0:
                break
            sub = (sub - 1) & u
    return table


def powerset_eca(
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2,
    *,
    cap_worlds: int = DEFAULT_POWERSET_CAP,
    verify: bool = True,
) -> FrameAlgebra:
    """Tabulate the frame's covering over all subset triples and wrap it as
    an extended contact algebra — verified full strength for equivalence
    frames, verified weak strength for parametrized frames."""
    w = frame.world_count
    if w > cap_worlds:
        raise CapExceeded(
            f"{w} worlds give a {1 << w}-element powerset, over cap_worlds={cap_worlds}"
        )
    algebra = FiniteBooleanAlgebra(w)
    if isinstance(frame, (EquivalenceFrame1, EquivalenceFrame2)):
        table = covering_table(frame, range(1 << w))
        strength = "ECA"
    elif isinstance(frame, ParametrizedFrame):
        table = _parametrized_table(frame)
        strength = "WECA"
    else:
        raise TypeError(f"not a frame: {type(frame).__name__}")
    covering = CoveringRelation(algebra, table)
    if not verify:
        eca = ExtendedContactAlgebra(covering, strength)
    elif strength == "ECA":
        eca = verified_eca(covering, cap_elements=1 << w)
    else:
        eca = verified_weca(covering, cap_elements=1 << w)
    return FrameAlgebra(frame, eca)


# ---------------------------------------------------------------------------
# JSON documents


def _classes_from_document(doc: dict, key: str, worlds: int) -> tuple[int, ...]:
    classes = doc.get(key)
    if (
        not isinstance(classes, list)
        or len(classes) != worlds
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in classes)
    ):
        raise DocumentError(f'"{key}" must be an array of {worlds} integer class ids')
    return tuple(classes)


def _worlds_from_document(doc: object) -> int:
    if not isinstance(doc, dict):
        raise DocumentError("frame document must be a JSON object")
    worlds = doc.get("worlds")
    if not isinstance(worlds, int) or isinstance(worlds, bool) or worlds < 1:
        raise DocumentError('"worlds" must be a positive integer')
    return worlds


def frame1_from_document(doc: object) -> EquivalenceFrame1:
    worlds = _worlds_from_document(doc)
    return EquivalenceFrame1(worlds, _classes_from_document(doc, "classes", worlds))


def frame2_from_document(doc: object) -> EquivalenceFrame2:
    worlds = _worlds_from_document(doc)
    return EquivalenceFrame2(
        worlds,
        _classes_from_document(doc, "classes", worlds),
        _classes_from_document(doc, "classes2", worlds),
    )


def _canonical_ids(classes: tuple[int, ...]) -> list[int]:
    relabel: dict[int, int] = {}
    out = []
    for cid in classes:
        if cid not in relabel:
            relabel[cid] = len(relabel)
        out.append(relabel[cid])
    return out


def frame1_document(frame: EquivalenceFrame1) -> dict:
    return {"worlds": frame.world_count, "classes": _canonical_ids(frame.classes)}


def frame2_document(frame: EquivalenceFrame2) -> dict:
    return {
        "worlds": frame.world_count,
        "classes": _canonical_ids(frame.classes1),
        "classes2": _canonical_ids(frame.classes2),
    }
