"""Relational frames and the covering structure each puts on its powerset.

Three frame kinds over a finite world set W (worlds 0..|W|-1, subsets as
int bitmasks): parametrized frames, which attach a binary relation R(U) to
every subset U of W and store them as one (2^|W|, |W|, |W|) boolean array;
equivalence frames of type 1 (one partition); and equivalence frames of
type 2 (two partitions, read through the composite class R1(R2(s))).  Each
induces a covering on subsets of W, and the powerset with that covering is
an extended contact algebra — weak for parametrized frames, full for the
equivalence kinds — which :func:`powerset_eca` tabulates and verifies.
:func:`covering_table` tabulates a frame's covering over any family of
subsets (all of them for the powerset, the images of an embedding for its
verification), and it is each frame's one covering evaluator.  For an
equivalence frame, (a, b) is covered by d iff a ∩ b ⊆ d and every class
(composite class, for type 2) meeting both a and b also meets d.  For a
parametrized frame it is the literal definition read through the superset
union R*(d) of the relations, so it holds for every frame, antitone or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    CoveringRelation,
    ExtendedContactAlgebra,
    FiniteBooleanAlgebra,
    _fold,
    verified_eca,
    verified_weca,
)
from .topology import CapExceeded, glued_components

DEFAULT_POWERSET_CAP = 5


def _require_masks(world_count: int, *masks: int) -> None:
    for m in masks:
        if not 0 <= m < (1 << world_count):
            raise ValueError(f"{m:#x} is not a subset mask over {world_count} worlds")


def _mask_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True, eq=False)
class ParametrizedFrame:
    """Worlds plus a relation R(U) for every subset U of the worlds, stored
    as one read-only (2^|W|, |W|, |W|) boolean array: ``relations[u]`` is
    R(U) for the subset with mask u.  The constructor copies and freezes
    the array and derives ``world_count`` from its shape."""

    relations: np.ndarray
    world_count: int = field(init=False)

    def __post_init__(self) -> None:
        relations = np.array(self.relations, dtype=bool)
        w = relations.shape[-1] if relations.ndim == 3 else 0
        if w < 1 or relations.shape != (1 << w, w, w):
            raise ValueError(
                "need one |W| x |W| relation per subset of at least one world, "
                f"got shape {relations.shape}"
            )
        relations.setflags(write=False)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "world_count", w)

    def relation(self, u_mask: int) -> np.ndarray:
        """R(U) as a read-only |W| x |W| boolean matrix."""
        _require_masks(self.world_count, u_mask)
        return self.relations[u_mask]


def _reach(frame: ParametrizedFrame) -> np.ndarray:
    """R*(d) = ⋁_{U ⊇ d} R(U) for every mask d: the pairs some relation
    indexed by a superset of d relates.  Equal to the relations themselves
    exactly when the frame is antitone (R shrinks as U grows)."""
    return _fold(frame.relations, 0, frame.world_count)


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
    the world columns give a ∩ b ⊆ d, and the class columns that every
    class meeting both a and b also meets d — the classes of a type-1
    frame, the composite classes R1(R2(s)) of a type-2 frame."""
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
    Parametrized frames use the literal covering — no R(U) with U ⊇ d
    relates a world of a to a world of b — in the form
    (a, b) ⊢ d ⟺ A[a] · R*(d) · A[b]ᵀ = 0, with A the membership rows and
    R* from :func:`_reach`: one small matmul per l.
    """
    n = len(masks)
    table = np.empty((n, n, n), dtype=bool)
    if isinstance(frame, ParametrizedFrame):
        rows = _membership(frame.world_count, masks).astype(np.float32)
        reach = _reach(frame).astype(np.float32)
        for l, u in enumerate(masks):
            table[:, :, l] = rows @ reach[u] @ rows.T == 0
        return table
    g = _meets(frame, masks).astype(np.float32)
    k = g.shape[1]
    missing = (1 - g).T
    step = max(1, _TABLE_CHUNK_ELEMENTS // (n * (n + k)))
    for lo in range(0, n, step):
        both = (g[lo : lo + step, None, :] * g[None, :, :]).reshape(-1, k)
        table[lo : lo + step] = (both @ missing).reshape(-1, n, n) == 0
    return table


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
    covering = CoveringRelation(FiniteBooleanAlgebra(w), covering_table(frame, range(1 << w)))
    if isinstance(frame, ParametrizedFrame):
        strength, verified = "WECA", verified_weca
    else:
        strength, verified = "ECA", verified_eca
    if verify:
        eca = verified(covering, cap_elements=1 << w)
    else:
        eca = ExtendedContactAlgebra(covering, strength)
    return FrameAlgebra(frame, eca)
