"""Representation builders: from covering algebras to frames, with the
machinery that machine-checks each construction really is an embedding.

Three pipelines, each embedding a ``CoveringRelation`` whose axiom system
is the checkers' shared verdict on it.  ``build_parametrized_frame``
sends a weak extended contact algebra to the frame of maximal filters of
its Boolean algebra, with R(U) defined by a witness-element condition and
read straight off the atom slices of the covering as one relation array;
it refuses a table whose verdict fails the weak axioms.  ``build_type1``
and ``build_type2`` send a regular closed algebra (through its covering)
to an equivalence frame whose worlds are (atom, point) couples — one
partition by point for type 1; partitions by atom and by point, read
through the composite class, for type 2; both read the worlds and the
image map that the source builds once.  ``verify_embedding`` checks
injectivity and preservation of zero, complement and join over all
tuples, and covering over all triples, by closed forms: N distinct
images, and the images rebuilt from the images of zero and the atoms.
For images that are unions of atom images, the frame's covering over
them is the covering of the atom sets that meet each world and class,
so covering is decided by comparing that family's atom slices with the
source's; other images, parametrized frames and a mismatch tabulate the
frame's covering and compare tables.  ``verify_c_preservation`` adds the
internal-connectedness biconditional for type 2.  It passes at once when
the atom images partition the worlds, every composite class is the image
of its atom set, and every atom image of two or more worlds is a class;
otherwise the algebraic side is decided for every element at once and
compared with the frame's gluing element by element.  Only a failing
verdict runs the literal loop that names its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    CheckResult,
    CoveringRelation,
    TopologicalEca,
    WorldAtomPoint,
    _covering_of_slices,
    _first,
    _slices_of_family,
    atom_slices,
    checks_document,
    internally_connected_algebraic,
    maximal_filters,
)
from .frames import (
    EquivalenceFrame1,
    EquivalenceFrame2,
    ParametrizedFrame,
    atom_family,
    covering_table,
    frame2_internally_connected,
)
from .topology import LabeledTopology


def _joins_of_atoms(img, k: int) -> tuple[int, ...]:
    """The image of zero joined with the images of the atoms below each
    element, in element order."""
    generated = [img[0]]
    for i in range(k):
        atom = img[1 << i]
        generated += [m | atom for m in generated]
    return tuple(generated)


def _family_slices(family: tuple[tuple[int, ...], ...], k: int) -> np.ndarray:
    """The atom slices of the covering of the atom sets in ``family``."""
    flags = np.zeros(1 << k, dtype=bool)
    flags[[sigma for part in family for sigma in part]] = True
    return _slices_of_family(flags, k)


@dataclass(frozen=True)
class Embedding:
    """A source covering, a target frame, and the image of every element as
    a subset mask over the frame's worlds.  ``worlds`` documents what the
    worlds are: maximal filters for the parametrized construction,
    :class:`WorldAtomPoint` couples for the equivalence constructions."""

    source: CoveringRelation
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2
    image_masks: tuple[int, ...]
    worlds: tuple = ()

    def __post_init__(self) -> None:
        if len(self.image_masks) != self.source.algebra.size:
            raise ValueError("image map must be total over source elements")

    @cached_property
    def _atom_family(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """For an equivalence frame whose images preserve zero and join, so
        that each image is the union of the atom images below it: the σ of
        the worlds and of the classes over the atom images
        (:func:`~mereotop.frames.atom_family`).  None otherwise."""
        img = self.image_masks
        k = self.source.algebra.atom_count
        if isinstance(self.frame, ParametrizedFrame) or img[0] or _joins_of_atoms(img, k) != tuple(img):
            return None
        return atom_family(self.frame, [img[1 << i] for i in range(k)])

    @cached_property
    def _covering_by_slices(self) -> bool | None:
        """Whether the frame's covering over the images equals the source's
        covering, decided on atom slices; None where they cannot decide it.

        The frame's table is the generation of the slices of its atom
        family.  A source whose verdict is not None is the generation of
        its own slices (``CoveringRelation._strength``).  Generation is
        injective on slices, since the slices of the generation of S are
        S, so the two tables are equal iff their slices are."""
        family = self._atom_family
        if family is None or self.source._strength is None:
            return None
        k = self.source.algebra.atom_count
        return bool((_family_slices(family, k) == self.source._slices).all())


@dataclass(frozen=True)
class VerificationReport:
    """Named checks for one pipeline run, each over every tuple."""

    pipeline: str
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extended(self, *extra: CheckResult) -> "VerificationReport":
        return VerificationReport(self.pipeline, self.checks + tuple(extra))


# ---------------------------------------------------------------------------
# the maximal-filter construction


def build_parametrized_frame(covering: CoveringRelation) -> Embedding:
    """The frame of maximal filters of the algebra of a weak (or full)
    extended contact algebra.

    World s is the filter of atom s, and h sends an element a to the
    filters containing it, which is the bit mask a itself.  R(U)(s, t)
    holds iff every covered pair (a, b) ⊢ d with a in filter s and b in
    filter t admits a witness element e that is not above d and belongs to
    every filter in U, i.e. e ⊇ U.  U itself is the least such e, so a
    witness exists iff d ⊄ U, and R(U)(s, t) holds iff no (a, b) ⊢ d has
    bit s in a, bit t in b and d ⊆ U.  On a weak algebra that is
    ¬(atom s, atom t) ⊢ U, the negated atom slice R_U: WECA1 shrinks a
    covered pair to its two atoms, and WECA4 grows its cover d up to U.
    On any other table the relations are not the frame's, so a table whose
    verdict fails the weak axioms is rejected.
    """
    if covering._strength is None:
        raise ValueError("the maximal-filter frame needs the weak extended contact axioms")
    frame = ParametrizedFrame(~atom_slices(covering))
    return Embedding(covering, frame, tuple(range(covering.algebra.size)), maximal_filters(covering.algebra))


# ---------------------------------------------------------------------------
# the (atom, point) constructions


def build_type1(teca: TopologicalEca) -> Embedding:
    """The type-1 equivalence frame of a regular closed algebra's covering:
    worlds are (atom, point) couples, related when they share the point."""
    worlds, image = teca._couple_worlds
    frame = EquivalenceFrame1(len(worlds), tuple(w.point for w in worlds))
    return Embedding(teca.covering, frame, image, worlds)


def build_type2(teca: TopologicalEca) -> Embedding:
    """The type-2 equivalence frame: same worlds and image map as type 1,
    first relation grouping by atom, second by point."""
    worlds, image = teca._couple_worlds
    frame = EquivalenceFrame2(
        len(worlds),
        tuple(w.atom_index for w in worlds),
        tuple(w.point for w in worlds),
    )
    return Embedding(teca.covering, frame, image, worlds)


# ---------------------------------------------------------------------------
# verification


def verify_embedding(embedding: Embedding, *, pipeline: str) -> VerificationReport:
    """Check the five embedding facts: injectivity, and preservation of
    zero, complement, join, and covering (a biconditional, both ways).

    A passing embedding is confirmed in O(N) steps.  Injectivity is N
    distinct images.  Join holds for every (a, b) iff each image is the
    image of zero joined with the images of the atoms below it (take
    (0, x), then split x at its low bit), so the images are rebuilt from
    zero and the atoms and compared.  When zero and join hold in an
    equivalence frame, the images are unions of atom images, and the
    frame's covering over them is the covering of the atom sets that meet
    each world and class (:func:`~mereotop.frames.atom_family`).  Covering
    then holds iff that family's atom slices equal the source's, for a
    source that is the generation of its own slices (its verdict is not
    None; see ``Embedding._covering_by_slices``).  Otherwise the frame's
    covering is tabulated, from that family or, for other images and for
    parametrized frames, by :func:`~mereotop.frames.covering_table`, and
    compared with the source's table.  Only a failing verdict runs the
    literal search, so each witness is the first violating tuple in
    ascending element order, the lex-first (a, b, d) for covering.  The
    commands bound the source by their element cap before building it, so
    the frame's table is no larger than the source's own.
    """
    source = embedding.source
    n = source.algebra.size
    k = source.algebra.atom_count
    frame = embedding.frame
    img = embedding.image_masks
    full = (1 << frame.world_count) - 1

    inj = None
    if len(set(img)) < n:
        for i in range(n):
            if inj:
                break
            for j in range(i + 1, n):
                if img[i] == img[j]:
                    inj = (i, j)
                    break
    zero = None if img[0] == 0 else (0,)
    comp = None
    for a in range(n):
        if img[(n - 1) ^ a] != full & ~img[a]:
            comp = (a,)
            break
    join = None
    family = embedding._atom_family
    if family is None and _joins_of_atoms(img, k) != tuple(img):
        for a in range(n):
            if join:
                break
            for b in range(n):
                if img[a | b] != img[a] | img[b]:
                    join = (a, b)
                    break
    cov = None
    if not embedding._covering_by_slices:
        if family is not None:
            table = _covering_of_slices(_family_slices(family, k), k)
        else:
            table = covering_table(frame, img)
        mismatch = table != source.table
        cov = _first(mismatch) if mismatch.any() else None
    checks = (
        CheckResult("injective", inj is None, inj),
        CheckResult("preserves-zero", zero is None, zero),
        CheckResult("preserves-complement", comp is None, comp),
        CheckResult("preserves-join", join is None, join),
        CheckResult("preserves-covering", cov is None, cov),
    )
    return VerificationReport(pipeline, checks)


def _c_preserved_on_atoms(embedding: Embedding) -> bool:
    """Whether c° holds for every element of a type-2 embedding by its atom
    images alone.  Write A(i) for the image of atom i, A(x) for the union
    of A(i) over the bits i of x, and σ_c = {i : A(i) meets c} for a
    composite class c.  The verdict is true when all of these hold:

    1. covering is preserved, decided on atom slices, with zero and join
       (``Embedding._covering_by_slices``), so A(x) is the image of x;
    2. the A(i) are nonempty, pairwise disjoint and cover the worlds, i.e.
       the σ of the worlds are exactly the single atoms;
    3. each composite class c equals A(σ_c);
    4. each A(i) with two or more worlds has {i} among the σ_c.

    Proof that c° then holds for every element a.  By 2, A(σ) ⊆ A(a) iff
    σ ⊆ a, so by 3 the composite classes inside A(a) are the A(σ_c) with
    σ_c ⊆ a.  Each A(i) with i in a is glued into one piece inside A(a):
    it is one world, or by 4 it is a class inside A(a).  So the worlds of
    A(a), glued along the classes inside A(a), form one component per
    component of the atoms of a linked by the σ_c ⊆ a: A(a) is
    frame-connected iff a is the union of a connected set of members of
    F = {σ_c} ∪ {single atoms}.  By 2 the σ of the worlds are the single
    atoms, so F is the atom family of the frame, whose covering v_F is the
    frame's covering over the images, equal to the source's by 1.  And in
    the covering of a family F that holds every single atom, a is
    internally connected iff its atoms are linked by the σ ∈ F with
    σ ⊆ a: a split (b, d) of a, both nonzero with b ∨ d = a, is covered by
    ¬a iff no σ ⊆ a meets both b and d, which for overlapping b and d the
    singleton of a shared atom refutes, and for disjoint ones says that no
    σ ⊆ a links b to d.  So the algebraic and the frame-side verdicts agree
    on every element.
    """
    if not embedding._covering_by_slices:
        return False
    worlds, sigmas = embedding._atom_family
    img = embedding.image_masks
    k = embedding.source.algebra.atom_count
    held = set(sigmas)
    return (
        sorted(worlds) == [1 << i for i in range(k)]
        and all(img[s] == c for s, c in zip(sigmas, embedding.frame.distinct_composite_masks))
        and all(img[1 << i] & (img[1 << i] - 1) == 0 or 1 << i in held for i in range(k))
    )


def verify_c_preservation(embedding: Embedding) -> CheckResult:
    """Check, for every source element, that the algebraic internal
    connectedness of the element matches the frame-side internal
    connectedness of its image (type-2 frames only).  An embedding whose
    atom images pass the conditions of :func:`_c_preserved_on_atoms`
    passes at once.  Otherwise the algebraic side is decided for every
    element at once (:func:`~mereotop.algebra.internally_connected_algebraic`)
    and compared with the frame side element by element."""
    if not isinstance(embedding.frame, EquivalenceFrame2):
        raise TypeError("internal connectedness transfers along type-2 frames")
    witness = None
    if not _c_preserved_on_atoms(embedding):
        own = internally_connected_algebraic(embedding.source)
        for a, connected in enumerate(own):
            if connected != frame2_internally_connected(embedding.frame, embedding.image_masks[a]):
                witness = (a,)
                break
    return CheckResult("preserves-internal-connectedness", witness is None, witness)


# ---------------------------------------------------------------------------
# report documents


def verification_document(
    report: VerificationReport,
    embedding: Embedding,
    *,
    labeled: LabeledTopology | None = None,
    teca: TopologicalEca | None = None,
) -> dict:
    """The JSON shape of a verification run: pipeline, checks, frame,
    embedding (element mask -> sorted world indices)."""
    frame = embedding.frame
    if isinstance(frame, EquivalenceFrame1):
        frame_doc: dict = {
            "kind": "type1",
            "worlds": frame.world_count,
            "classes": list(frame.classes),
        }
    elif isinstance(frame, EquivalenceFrame2):
        frame_doc = {
            "kind": "type2",
            "worlds": frame.world_count,
            "classes": list(frame.classes1),
            "classes2": list(frame.classes2),
        }
    else:
        frame_doc = {"kind": "parametrized", "worlds": frame.world_count}
    if embedding.worlds and all(isinstance(w, WorldAtomPoint) for w in embedding.worlds):
        if labeled is not None and teca is not None:
            # one label list per atom, shared by the entries of its worlds
            atom_labels = [labeled.labels_of(atom) for atom in teca.source.atoms]
            detail = [
                {"atom": atom_labels[wap.atom_index], "point": labeled.labels[wap.point]}
                for wap in embedding.worlds
            ]
        else:
            detail = [{"atom_index": wap.atom_index, "point": wap.point} for wap in embedding.worlds]
        frame_doc["worlds_detail"] = detail
    return {
        "pipeline": report.pipeline,
        "mode": "exhaustive",
        "checks": checks_document(report.checks),
        "frame": frame_doc,
        "embedding": {
            str(mask): [w for w in range(frame.world_count) if m >> w & 1]
            for mask, m in enumerate(embedding.image_masks)
        },
    }
