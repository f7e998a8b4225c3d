"""Representation builders: from covering algebras to frames, with the
machinery that machine-checks each construction really is an embedding.

Three pipelines, each embedding a ``CoveringRelation`` whose axiom system
is the checkers' shared verdict on it, and each named after the class of
its frame.  ``build_parametrized_frame`` sends a weak extended contact
algebra to the frame of maximal filters of its Boolean algebra, with R(U)
defined by a witness-element condition and read straight off the atom
slices of the covering as one relation array; it refuses a table whose
verdict fails the weak axioms.  ``build_type1`` and ``build_type2`` send
an extended contact algebra to an equivalence frame whose worlds are the
(atom, point) couples of a model, given by its points' atom signatures:
the points of a space (``RegularClosedAlgebra.point_signatures``), or for
an abstract covering the members of its S* (``signatures``), of which it
is the covering.  Type 1 has one partition, by point; type 2 has
partitions by atom and by point, read through the composite class.

``verify_embedding`` is the one verification call.  It checks
injectivity and preservation of zero, complement and join over all
tuples, and covering over all triples, by closed forms: N distinct
images, and the images rebuilt from the images of zero and the atoms.
When zero and join hold, the images are unions of atom images, and in
every frame kind the frame's covering over them is the table generated
by its atom slices (:func:`~mereotop.frames.covering_slices`), so
covering is decided by comparing those slices with the source's.  For an
equivalence frame and a source built from a family, a family gate comes
first: slices are a function of a family, so when the frame's σ family
of the atom images (:func:`~mereotop.frames.covering_family`) is the
source's member set, covering holds without the slice product, and the
source's own slices are never generated.  That is
always so when the source is the covering of the points' signatures the
type-1 or type-2 frame is built on: the covering of a space
(``eca_from_rc``), or of an S*.  Only a covering the slices do not confirm is
tabulated over the images and compared table to table, for its witness.
A passing embedding's report is a shared constant, as a passing axiom
system's is.  For a type-2 frame the report ends with the
internal-connectedness biconditional
(:func:`verify_c_preservation`), which passes at once when the covering
passed on slices, the atom images partition the worlds, and every atom
image of two or more worlds is a class; otherwise the algebraic side is decided for every
element at once and compared with the frame's gluing element by
element.  Only a failing verdict runs the literal loop that names its
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    AxiomReport,
    CheckResult,
    CoveringRelation,
    _first,
    atom_slices,
    checks_document,
    internally_connected_algebraic,
    maximal_filters,
)
from .frames import (
    EquivalenceFrame1,
    EquivalenceFrame2,
    ParametrizedFrame,
    covering_family,
    covering_slices,
    covering_table,
    frame2_internally_connected,
)
from .topology import LabeledTopology, joins_by_mask, mask_indices


# the pipeline each frame class runs, named in reports as the frame's kind
_PIPELINES = {ParametrizedFrame: "parametrized", EquivalenceFrame1: "type1", EquivalenceFrame2: "type2"}


@dataclass(frozen=True)
class Embedding:
    """A source covering, a target frame, and the image of every element as
    a subset mask over the frame's worlds.  ``worlds`` documents what the
    worlds are: maximal filters for the parametrized construction,
    (atom index, point) couples for the equivalence constructions."""

    source: CoveringRelation
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2
    image_masks: tuple[int, ...]
    worlds: tuple = ()

    def __post_init__(self) -> None:
        if len(self.image_masks) != self.source.algebra.size:
            raise ValueError("image map must be total over source elements")


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


def _atom_point_worlds(atom_count: int, points: Sequence[int]) -> tuple[tuple, tuple[int, ...]]:
    """The worlds (i, x), one for each atom i and point x whose atom
    signature ``points[x]`` holds i, in atom-then-point order, and the image
    map h'(a) = {(i, x) : i in a}, the union of the worlds of the atoms that
    a selects, shared by the type-1 and type-2 constructions."""
    worlds = tuple((i, x) for i in range(atom_count) for x, sig in enumerate(points) if sig >> i & 1)
    atom_world_mask = [0] * atom_count
    for w, (i, _) in enumerate(worlds):
        atom_world_mask[i] |= 1 << w
    return worlds, joins_by_mask(0, atom_world_mask)


def build_type1(covering: CoveringRelation, points: Sequence[int]) -> Embedding:
    """The type-1 equivalence frame of a covering whose model has points
    with atom signatures ``points``: worlds are (atom, point) couples,
    related when they share the point."""
    worlds, image = _atom_point_worlds(covering.algebra.atom_count, points)
    frame = EquivalenceFrame1(len(worlds), tuple(x for _, x in worlds))
    return Embedding(covering, frame, image, worlds)


def build_type2(covering: CoveringRelation, points: Sequence[int]) -> Embedding:
    """The type-2 equivalence frame: same worlds and image map as type 1,
    first relation grouping by atom, second by point."""
    worlds, image = _atom_point_worlds(covering.algebra.atom_count, points)
    frame = EquivalenceFrame2(len(worlds), tuple(i for i, _ in worlds), tuple(x for _, x in worlds))
    return Embedding(covering, frame, image, worlds)


# ---------------------------------------------------------------------------
# verification

_EMBEDDING_CHECKS = ("injective", "preserves-zero", "preserves-complement", "preserves-join", "preserves-covering")
_C_PRESERVED = CheckResult("preserves-internal-connectedness", True)
_PASSED_CHECKS = AxiomReport.of(dict.fromkeys(_EMBEDDING_CHECKS)).results
# the report of a passing embedding, shared (frozen), by whether it ends with c°
_EMBEDDED = {False: AxiomReport(_PASSED_CHECKS), True: AxiomReport((*_PASSED_CHECKS, _C_PRESERVED))}


def verify_embedding(embedding: Embedding) -> AxiomReport:
    """Check the five embedding facts: injectivity, and preservation of
    zero, complement, join, and covering (a biconditional, both ways); for
    a type-2 frame, also preservation of internal connectedness
    (:func:`verify_c_preservation`).

    A passing embedding is confirmed in O(N) steps.  Injectivity is N
    distinct images.  Join holds for every (a, b) iff each image is the
    image of zero joined with the images of the atoms below it (take
    (0, x), then split x at its low bit), so the images are rebuilt from
    zero and the atoms and compared.  When zero and join hold, the images
    are unions of atom images, and in every frame kind the frame's covering
    over them is the table generated by its atom slices F (see
    :func:`~mereotop.frames.covering_slices`).  For a source whose verdict
    is not None, the source is the generation of its own slices
    (``CoveringRelation._strength``), and generation is injective on
    slices, since the slices of the generation of S are S; so the two
    tables are equal iff F equals the source's slices.  One gate serves
    every frame kind: zero and join hold, the verdict is not None, and the
    slices agree.  For an equivalence frame and a source built from a
    family, the slices agree at once when the frame's σ family equals the
    source's member set (:func:`_covering_on_slices`), as they do for the
    frames :func:`build_type1` and :func:`build_type2` make over the points
    the source's family lists.  Any covering the gate does not confirm is
    tabulated by :func:`~mereotop.frames.covering_table` and compared with
    the source's table.  Only a failing verdict runs the literal search, so
    each witness is the first violating tuple in ascending element order,
    the lex-first (a, b, d) for covering.  The commands bound the source by
    their element cap before building it, so the frame's table is no
    larger than the source's own.  A passing report is shared: one
    constant for the five checks, one with c° appended for type 2.
    """
    source = embedding.source
    n = source.algebra.size
    k = source.algebra.atom_count
    frame = embedding.frame
    img = tuple(embedding.image_masks)
    full = (1 << frame.world_count) - 1
    atoms = [img[1 << i] for i in range(k)]

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
    if joins_by_mask(img[0], atoms) != img:
        for a in range(n):
            if join:
                break
            for b in range(n):
                if img[a | b] != img[a] | img[b]:
                    join = (a, b)
                    break
    on_slices = (
        zero is None and join is None and source._strength is not None and _covering_on_slices(source, frame, atoms)
    )
    cov = None
    if not on_slices:
        mismatch = covering_table(frame, img) != source.table
        cov = _first(mismatch) if mismatch.any() else None
    witnesses = dict(zip(_EMBEDDING_CHECKS, (inj, zero, comp, join, cov)))
    c = verify_c_preservation(embedding, on_slices) if isinstance(frame, EquivalenceFrame2) else None
    if (c is None or c.passed) and all(w is None for w in witnesses.values()):
        return _EMBEDDED[c is not None]
    results = AxiomReport.of(witnesses).results
    return AxiomReport(results if c is None else results + (c,))


def _covering_on_slices(
    source: CoveringRelation,
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2,
    atoms: Sequence[int],
) -> bool:
    """For a source with a verdict, whether the frame's covering over the
    joins of the atom images ``atoms`` is the source's: whether the
    frame's atom slices equal the source's.  Slices are a function of a
    family, so for an equivalence frame and a source built from a family,
    a σ family (:func:`~mereotop.frames.covering_family`) equal to the
    source's member set passes without either side's N·k² product.  The
    frames :func:`build_type1` and :func:`build_type2` make always take
    this gate on the covering of their points' signatures: the frame's
    family is the single atoms and those signatures, and the signatures
    already hold every single atom.  In a
    space, a point of a minimal neighbourhood U_x lies in the closure of
    U_x alone, since two minimal neighbourhoods that meet are equal; an
    extended algebra's S* holds every single atom by the axioms.  Any
    other case compares the slices."""
    if source._members is not None and not isinstance(frame, ParametrizedFrame):
        if covering_family(frame, atoms) == source._members:
            return True
    return bool((covering_slices(frame, atoms) == source._slices).all())


def _c_preserved_on_atoms(embedding: Embedding, on_slices: bool) -> bool:
    """Whether c° holds for every element of a type-2 embedding by its atom
    images alone.  Write A(i) for the image of atom i, A(x) for the union
    of A(i) over the bits i of x, and σ_c = {i : A(i) meets c} for a
    composite class c.  The verdict is true when all of these hold:

    1. ``on_slices``: zero, join and covering are preserved, covering
       decided on atom slices, so A(x) is the image of x and the frame's
       covering over the images is the source's;
    2. the A(i) partition the worlds: each is nonempty, together they
       cover every world, and their sizes add up to the number of worlds,
       so no two overlap;
    3. each A(i) with two or more worlds is a composite class.

    Proof that c° then holds for every element a.  By 2 each world lies in
    exactly one A(i), so a composite class c lies inside A(a) iff σ_c ⊆ a.
    Each A(i) with i in a is glued into one piece inside A(a): it is one
    world, or by 3 a class inside A(a); and a class inside A(a) glues the
    pieces of the atoms in its σ_c.  So the worlds of A(a), glued along
    the classes inside A(a), form one component per component of the
    atoms of a linked by the σ_c ⊆ a: A(a) is frame-connected iff a is the
    union of a connected set of members of F = {σ_c} ∪ {single atoms}.
    By 2 the σ of the worlds are the single atoms, so F is the σ family
    of the atom images (:func:`~mereotop.frames._sigma_family`), whose
    covering v_F is the frame's covering over the images, equal to the
    source's by 1.  (A class need not be a union of atom images: one that
    straddles A(i) still lies inside A(a) exactly when σ_c ⊆ a.)  And in
    the covering of a family F that holds every single atom, a is
    internally connected iff its atoms are linked by the σ ∈ F with
    σ ⊆ a: a split (b, d) of a, both nonzero with b ∨ d = a, is covered by
    ¬a iff no σ ⊆ a meets both b and d, which for overlapping b and d the
    singleton of a shared atom refutes, and for disjoint ones says that no
    σ ⊆ a links b to d.  So the algebraic and the frame-side verdicts
    agree on every element.
    """
    img = embedding.image_masks
    atoms = [img[1 << i] for i in range(embedding.source.algebra.atom_count)]
    classes = embedding.frame.covering_classes
    w = embedding.frame.world_count
    return (
        on_slices
        and all(atoms)
        and img[-1] == (1 << w) - 1  # the image of one, the join of the atom images by 1
        and sum(a.bit_count() for a in atoms) == w
        and all(a & (a - 1) == 0 or a in classes for a in atoms)
    )


def verify_c_preservation(embedding: Embedding, on_slices: bool) -> CheckResult:
    """Check, for every source element, that the algebraic internal
    connectedness of the element matches the frame-side internal
    connectedness of its image (type-2 frames only; :func:`verify_embedding`
    calls it).  ``on_slices`` tells whether zero, join and covering passed,
    covering on atom slices.  An embedding that passes the conditions of
    :func:`_c_preserved_on_atoms` passes at once.  Otherwise the algebraic
    side is decided for every element at once
    (:func:`~mereotop.algebra.internally_connected_algebraic`) and compared
    with the frame side element by element."""
    if not isinstance(embedding.frame, EquivalenceFrame2):
        raise TypeError("internal connectedness transfers along type-2 frames")
    witness = None
    if not _c_preserved_on_atoms(embedding, on_slices):
        own = internally_connected_algebraic(embedding.source)
        for a, connected in enumerate(own):
            if connected != frame2_internally_connected(embedding.frame, embedding.image_masks[a]):
                witness = (a,)
                break
    return _C_PRESERVED if witness is None else CheckResult(_C_PRESERVED.name, False, witness)


# ---------------------------------------------------------------------------
# report documents


def verification_document(
    report: AxiomReport,
    embedding: Embedding,
    *,
    labeled: LabeledTopology | None = None,
    points: Sequence[int] | None = None,
) -> dict:
    """The JSON shape of a verification run: pipeline (the frame's kind),
    checks, frame, embedding (element mask -> sorted world indices, read
    off the set bits of its image).  An equivalence frame also lists its
    (atom, point) worlds as ``atom_index`` and ``point``.  When ``labeled``
    names the points of the source's model, a point is its label and the
    frame's ``atom_labels`` lists each atom's sorted labels once.
    Otherwise a point is its position, and ``points``, the points' atom
    signatures in that order, is listed as ``point_atoms``: each point's
    atom indices."""
    frame = embedding.frame
    kind = _PIPELINES[type(frame)]
    frame_doc: dict = {"kind": kind, "worlds": frame.world_count}
    if isinstance(frame, EquivalenceFrame1):
        frame_doc["classes"] = list(frame.classes)
    elif isinstance(frame, EquivalenceFrame2):
        frame_doc["classes"] = list(frame.classes1)
        frame_doc["classes2"] = list(frame.classes2)
    if embedding.worlds and kind != "parametrized":
        if labeled is None:
            detail = [{"atom_index": i, "point": x} for i, x in embedding.worlds]
            if points is not None:
                frame_doc["point_atoms"] = [mask_indices(sig) for sig in points]
        else:
            names = labeled.labels
            detail = [{"atom_index": i, "point": names[x]} for i, x in embedding.worlds]
            atom_labels: list[list[str]] = [[] for _ in range(embedding.source.algebra.atom_count)]
            for i, x in embedding.worlds:
                atom_labels[i].append(names[x])
            frame_doc["atom_labels"] = [sorted(labels) for labels in atom_labels]
        frame_doc["worlds_detail"] = detail
    return {
        "pipeline": kind,
        "mode": "exhaustive",
        "checks": checks_document(report.results),
        "frame": frame_doc,
        "embedding": {str(mask): mask_indices(m) for mask, m in enumerate(embedding.image_masks)},
    }
