"""Representation builders: from covering algebras to frames, with the
machinery that machine-checks each construction really is an embedding.

Three pipelines.  ``build_parametrized_frame`` sends a weak extended
contact algebra to the frame of maximal filters of its Boolean algebra,
with R(U) defined by a witness-element condition and read straight off
the atom slices of the covering as one relation array.  ``build_type1``
and ``build_type2`` send a regular closed algebra (through its covering)
to an equivalence frame whose worlds are (atom, point) couples — one
partition by point for type 1; partitions by atom and by point, read
through the composite class, for type 2.  ``verify_embedding`` checks
injectivity and preservation of zero, complement and join over all
tuples, and covering over all triples, by closed forms: N distinct
images, the images rebuilt from the images of zero and the atoms, and one
comparison of the source's covering table with the frame's covering
tabulated over the images, which for images that are unions of atom
images is the covering of the atom sets that meet each world and class.
``verify_c_preservation`` adds the internal-connectedness biconditional
for type 2, with the algebraic side decided for every element at once.
Only a failing verdict runs the literal loop that names its witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    CheckResult,
    ExtendedContactAlgebra,
    TopologicalEca,
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
    atom_covering_table,
    covering_table,
    frame2_internally_connected,
)
from .topology import LabeledTopology


@dataclass(frozen=True)
class WorldAtomPoint:
    """A world of the type-1/type-2 constructions: an atom index paired
    with one of the atom's points."""

    atom_index: int
    point: int


@dataclass(frozen=True)
class Embedding:
    """A source algebra, a target frame, and the image of every element as
    a subset mask over the frame's worlds.  ``worlds`` documents what the
    worlds are: maximal filters for the parametrized construction,
    :class:`WorldAtomPoint` couples for the equivalence constructions."""

    source: ExtendedContactAlgebra
    frame: ParametrizedFrame | EquivalenceFrame1 | EquivalenceFrame2
    image_masks: tuple[int, ...]
    worlds: tuple = ()

    def __post_init__(self) -> None:
        if len(self.image_masks) != self.source.algebra.size:
            raise ValueError("image map must be total over source elements")


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


def build_parametrized_frame(eca: ExtendedContactAlgebra) -> Embedding:
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
    The caller checks the weak axioms first; on any other table the
    relations are not the frame's.
    """
    n = eca.algebra.size
    frame = ParametrizedFrame(~atom_slices(eca.covering))
    return Embedding(eca, frame, tuple(range(n)), maximal_filters(eca.algebra))


# ---------------------------------------------------------------------------
# the (atom, point) constructions


def _couple_worlds(teca: TopologicalEca) -> tuple[tuple[WorldAtomPoint, ...], tuple[int, ...]]:
    """Worlds (one per point of each atom, ordered by atom then point) and
    the image map h'(a) = {(A, s) : A's point set inside the point set of a}.
    An atom lies inside the point set of mask a exactly when a selects it,
    so h'(a) is the union of the worlds of the atoms that a selects."""
    worlds = tuple(
        WorldAtomPoint(i, point)
        for i, atom in enumerate(teca.source.atoms)
        for point in atom.points()
    )
    atom_world_mask = [0] * len(teca.source.atoms)
    for w, wap in enumerate(worlds):
        atom_world_mask[wap.atom_index] |= 1 << w
    image = [0]
    for worlds_of_atom in atom_world_mask:
        image += [m | worlds_of_atom for m in image]
    return worlds, tuple(image)


def build_type1(teca: TopologicalEca) -> Embedding:
    """The type-1 equivalence frame of a regular closed algebra's covering:
    worlds are (atom, point) couples, related when they share the point."""
    worlds, image = _couple_worlds(teca)
    frame = EquivalenceFrame1(len(worlds), tuple(w.point for w in worlds))
    return Embedding(teca.eca, frame, image, worlds)


def build_type2(teca: TopologicalEca) -> Embedding:
    """The type-2 equivalence frame: same worlds and image map as type 1,
    first relation grouping by atom, second by point."""
    worlds, image = _couple_worlds(teca)
    frame = EquivalenceFrame2(
        len(worlds),
        tuple(w.atom_index for w in worlds),
        tuple(w.point for w in worlds),
    )
    return Embedding(teca.eca, frame, image, worlds)


# ---------------------------------------------------------------------------
# verification


def verify_embedding(embedding: Embedding, *, pipeline: str) -> VerificationReport:
    """Check the five embedding facts: injectivity, and preservation of
    zero, complement, join, and covering (a biconditional, both ways).

    A passing embedding is confirmed in O(N) steps.  Injectivity is N
    distinct images.  Join holds for every (a, b) iff each image is the
    image of zero joined with the images of the atoms below it (take
    (0, x), then split x at its low bit), so the images are rebuilt from
    zero and the atoms and compared.  Covering is one comparison of the
    source's table with the frame's covering tabulated over the images:
    when zero and join hold, the images are unions of atom images and the
    table comes from their signatures
    (:func:`~mereotop.frames.atom_covering_table`); otherwise, and for
    parametrized frames, from :func:`~mereotop.frames.covering_table`.
    Only a failing verdict runs the literal search, so each witness is the
    first violating tuple in ascending element order, the lex-first
    (a, b, d) for covering.  The commands bound the source by their element
    cap before building it, so the frame's table is no larger than the
    source's own.
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
    generated = [img[0]]
    for i in range(k):
        atom = img[1 << i]
        generated += [m | atom for m in generated]
    if tuple(generated) != tuple(img):
        for a in range(n):
            if join:
                break
            for b in range(n):
                if img[a | b] != img[a] | img[b]:
                    join = (a, b)
                    break
    if zero is None and join is None and not isinstance(frame, ParametrizedFrame):
        table = atom_covering_table(frame, [img[1 << i] for i in range(k)])
    else:
        table = covering_table(frame, img)
    mismatch = table != source.covering.table
    cov = _first(mismatch) if mismatch.any() else None
    checks = (
        CheckResult("injective", inj is None, inj),
        CheckResult("preserves-zero", zero is None, zero),
        CheckResult("preserves-complement", comp is None, comp),
        CheckResult("preserves-join", join is None, join),
        CheckResult("preserves-covering", cov is None, cov),
    )
    return VerificationReport(pipeline, checks)


def verify_c_preservation(embedding: Embedding) -> CheckResult:
    """Check, for every source element, that the algebraic internal
    connectedness of the element matches the frame-side internal
    connectedness of its image (type-2 frames only).  The algebraic side
    is decided for every element at once
    (:func:`~mereotop.algebra.internally_connected_algebraic`)."""
    if not isinstance(embedding.frame, EquivalenceFrame2):
        raise TypeError("internal connectedness transfers along type-2 frames")
    own = internally_connected_algebraic(embedding.source.covering)
    witness = None
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
