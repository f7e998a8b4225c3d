"""Relational frames and the covering structure each puts on subsets of
their worlds.

Three frame kinds over a finite world set W (worlds 0..|W|-1, subsets as
int bitmasks): parametrized frames, which attach a binary relation R(U) to
every subset U of W and store them as one (2^|W|, |W|, |W|) boolean array;
equivalence frames of type 1 (one partition); and equivalence frames of
type 2 (two partitions, read through the composite class R1(R2(s))).  Each
induces a covering on subsets of W: on the powerset it is a weak extended
contact algebra for parametrized frames and a full one for the
equivalence kinds.  :func:`covering_slices` reads any frame's covering
over the joins of k atom images as N·k² atom slices, so an embedding that
preserves zero and join is checked on atom-level data.  For an
equivalence frame those slices are a function of the σ family of the
atom images, which :func:`covering_family` gives as a set: a source built
from the same family, which holds its members as such a set, has the
same slices, so comparing the two sets confirms covering without the
slice product.
:func:`covering_table` tabulates the covering over any family of subsets:
all of them for the powerset, or the images of an embedding whose
covering the slices do not confirm, to name the witness.  For an
equivalence frame, (a, b) is covered by d iff a ∩ b ⊆ d and every class
(composite class, for type 2) meeting both a and b also meets d: over any
subsets, the covering of their σ family, which both readers use.  For a
parametrized frame it is the literal definition read through the superset
union R*(d) of the relations, so it holds for every frame, antitone or not:
both readers take it as the join-extension of R*(d) over the subsets'
membership rows, algebra's one generator, for every d at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .algebra import _fold, _join_extension, _slices_of_family
from .topology import _PRODUCT_CHUNK_ELEMENTS, bit_matrix, glued_components, joins_by_mask, mask_indices


def _require_masks(world_count: int, *masks: int) -> None:
    for m in masks:
        if not 0 <= m < (1 << world_count):
            raise ValueError(f"{m:#x} is not a subset mask over {world_count} worlds")


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


def _reach(frame: ParametrizedFrame) -> np.ndarray:
    """R*(d) = ⋁_{U ⊇ d} R(U) for every mask d: the pairs some relation
    indexed by a superset of d relates.  Equal to the relations themselves
    exactly when the frame is antitone (R shrinks as U grows)."""
    return _fold(frame.relations, 0, frame.world_count)


# ---------------------------------------------------------------------------
# equivalence frames


def _unions_by_class(classes: Sequence[int], values: Iterable[int]) -> dict[int, int]:
    """Each class id of ``classes`` (one per world) mapped to the union of
    ``values`` over its worlds, in order of first world: one pass."""
    unions: dict[int, int] = {}
    for cid, value in zip(classes, values):
        unions[cid] = unions.get(cid, 0) | value
    return unions


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

    def class_unions(self, values: Sequence[int]) -> list[int]:
        """The union of ``values[w]`` over the worlds w of each class, in
        order of first world."""
        return list(_unions_by_class(self.classes, values).values())

    @cached_property
    def covering_classes(self) -> tuple[int, ...]:
        """The distinct classes, in order of first world."""
        return tuple(self.class_unions([1 << w for w in range(self.world_count)]))


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

    def class_unions(self, values: Sequence[int]) -> list[int]:
        """The union of ``values[w]`` over the worlds w of each composite
        class R1(R2(s)), one entry per class of the second relation, in
        order of first world: the unions over the first relation's classes,
        joined across each class of the second."""
        first = _unions_by_class(self.classes1, values)
        return list(_unions_by_class(self.classes2, map(first.__getitem__, self.classes1)).values())

    @cached_property
    def covering_classes(self) -> tuple[int, ...]:
        """The distinct composite classes R1(R2(s)), in order of first world."""
        return tuple(dict.fromkeys(self.class_unions([1 << w for w in range(self.world_count)])))


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
    return len(glued_components(s_mask, frame.covering_classes)) <= 1


# ---------------------------------------------------------------------------
# the covering tabulated over a family of subsets

def _sigma_family(frame: EquivalenceFrame1 | EquivalenceFrame2, masks: Sequence[int]) -> list[int]:
    """The σ family of the subsets ``masks``, each σ a mask over their
    indices: σ_w = {i : w ∈ masks[i]} of each world w, one OR of 1 << i into
    σ_w for each world w of each masks[i], and σ_c = {i : masks[i] meets c}
    of each class c of ``covering_classes`` (the composite classes, for
    type 2), the union of the σ_w of its worlds (``class_unions``), each σ
    once, in no particular order.

    (masks[i], masks[j]) ⊢ masks[l] iff no σ holds i and j and misses l:
    the σ_w give masks[i] ∩ masks[j] ⊆ masks[l], and the σ_c the class
    condition.  So over the joins A(x) of atom images, which meet a world or
    class iff x meets its σ, the covering is the covering of this family
    (:func:`~mereotop.algebra.covering_from_signatures`).
    """
    world_sigma = [0] * frame.world_count
    for i, mask in enumerate(masks):
        for w in mask_indices(mask):
            world_sigma[w] |= 1 << i
    return list(dict.fromkeys([*world_sigma, *frame.class_unions(world_sigma)]))  # many worlds and classes share a σ


def covering_table(
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2,
    masks: Sequence[int],
) -> np.ndarray:
    """The frame's covering tabulated over the given subsets: entry
    [i, j, l] tells whether (masks[i], masks[j]) is covered by masks[l].

    Equivalence frames count, for every (i, j, l), the σ of
    :func:`_sigma_family` that hold i and j and miss l, in one float32
    matmul per chunk of i (exact: a count never exceeds the family's size).
    Parametrized frames use the literal covering — no R(U) with U ⊇ d
    relates a world of a to a world of b: the join-extension, over the
    membership rows of the subsets, of R*(masks[l])[s, t] (R* from
    :func:`_reach`) for every l at once.
    """
    _require_masks(frame.world_count, *masks)
    if isinstance(frame, ParametrizedFrame):
        rows = bit_matrix(frame.world_count, masks).astype(np.float32)
        return _join_extension(rows, _reach(frame)[list(masks)].transpose(1, 2, 0))
    n = len(masks)
    table = np.empty((n, n, n), dtype=bool)
    g = bit_matrix(n, _sigma_family(frame, masks)).T.astype(np.float32)  # g[i, σ]: σ holds i
    k = g.shape[1]
    missing = (1 - g).T
    step = max(1, _PRODUCT_CHUNK_ELEMENTS // (n * (n + k)))
    for lo in range(0, n, step):
        both = (g[lo : lo + step, None, :] * g[None, :, :]).reshape(-1, k)
        table[lo : lo + step] = (both @ missing).reshape(-1, n, n) == 0
    return table


def covering_slices(
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2, atom_images: Sequence[int]
) -> np.ndarray:
    """F[d, p, q] = (A(p), A(q)) is covered by A(d), as an (N, k, k) bool
    array, where A(p) = atom_images[p] and A(d) is the union of A(p) over
    the bits p of d.

    Over the images A(x), every frame's covering is the table these slices
    generate (see :func:`~mereotop.algebra.covering_from_slices`): (A(a),
    A(b)) is covered by A(d) iff (A(p), A(q)) is for every atom p of a and
    q of b.  For a parametrized frame, (A(a), A(b)) is covered by A(d) iff
    no s ∈ A(a), t ∈ A(b) have R*(A(d))(s, t), and that splits over the
    atoms of a and b, whatever R* is (antitone or not): the join-extension
    of R*(A(d)) over the atom images, for every d at once.  For an
    equivalence frame, the covering over the images is the covering of the
    σ family of the atom images (:func:`_sigma_family`), whose slices one
    product reads off (:func:`~mereotop.algebra._slices_of_family`).
    """
    if isinstance(frame, ParametrizedFrame):
        _require_masks(frame.world_count, *atom_images)
        rows = bit_matrix(frame.world_count, atom_images).astype(np.float32)
        reach = _reach(frame)[list(joins_by_mask(0, atom_images))]
        return _join_extension(rows, reach.transpose(1, 2, 0)).transpose(2, 0, 1)
    return _slices_of_family(covering_family(frame, atom_images), len(atom_images))


def covering_family(frame: EquivalenceFrame1 | EquivalenceFrame2, atom_images: Sequence[int]) -> frozenset[int]:
    """The σ family of the atom images (:func:`_sigma_family`), a frozenset
    of atom-set masks: the family whose covering is the equivalence frame's
    covering over the joins of the images.  So two frames, or a frame and a
    covering built from a family (whose members
    :func:`~mereotop.algebra.covering_from_signatures` holds as such a set),
    with equal families have equal atom slices."""
    _require_masks(frame.world_count, *atom_images)
    return frozenset(_sigma_family(frame, atom_images))
