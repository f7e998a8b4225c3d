"""Representation builders: from covering algebras to frames, with the
machinery that machine-checks each construction really is an embedding.

Three pipelines.  ``build_parametrized_frame`` sends any weak extended
contact algebra to the frame of maximal filters of its Boolean algebra,
with R(U) defined by a witness-element condition and read straight off
the covering table as one relation array.  ``build_type1`` and
``build_type2`` send a regular closed algebra (through its covering) to an
equivalence frame whose worlds are (atom, point) couples — one partition
by point for type 1; partitions by atom and by point, read through the
composite class, for type 2.  ``verify_embedding`` checks injectivity and
preservation of zero, complement and join over all tuples, and covering by
one comparison of the source's covering table with the frame's covering
tabulated over the images (seeded random triples above a size cap);
``verify_c_preservation`` adds the internal-connectedness biconditional
for type 2; ``check_split_pullback`` pulls a frame-side split of an image
back to a pair of algebra elements and checks the three facts that make
the connectedness argument work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .algebra import (
    CheckResult,
    ExtendedContactAlgebra,
    TopologicalEca,
    _fold,
    checks_document,
    internally_connected_algebraic,
    maximal_filters,
)
from .frames import (
    EquivalenceFrame1,
    EquivalenceFrame2,
    ParametrizedFrame,
    covering_entries,
    covering_table,
    frame2_covering,
    frame2_internally_connected,
)
from .topology import CapExceeded, LabeledTopology

DEFAULT_VERIFY_CAP = 32


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
    """Named checks for one pipeline run.  ``mode`` is "exhaustive" when
    every tuple was checked, "sampled" above the cap (and labeled so)."""

    pipeline: str
    checks: tuple[CheckResult, ...]
    mode: str = "exhaustive"

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extended(self, *extra: CheckResult) -> "VerificationReport":
        return VerificationReport(self.pipeline, self.checks + tuple(extra), self.mode)


# ---------------------------------------------------------------------------
# the maximal-filter construction


def build_parametrized_frame(eca: ExtendedContactAlgebra) -> Embedding:
    """The frame of maximal filters of the algebra of a (weak or full)
    extended contact algebra.

    World s is the filter of atom s, and h sends an element a to the
    filters containing it, which is the bit mask a itself.  R(U)(s, t)
    holds iff every covered pair (a, b) ⊢ d with a in filter s and b in
    filter t admits a witness element e that is not above d and belongs to
    every filter in U, i.e. e ⊇ U.  U itself is the least such e, so a
    witness exists iff d ⊄ U, and R(U)(s, t) holds iff no (a, b) ⊢ d has
    bit s in a, bit t in b and d ⊆ U — for any covering table, with no
    axiom assumed.  That is two matmuls against the atom-membership
    matrix (over a, then over b) and one subset fold over d.
    """
    k = eca.algebra.atom_count
    n = eca.algebra.size
    members = (np.arange(n) >> np.arange(k)[:, None] & 1).astype(np.float32)
    v = eca.covering.table.astype(np.float32)
    left = (members @ v.reshape(n, n * n)).reshape(k, n, n)  # [s, b, d]
    pairs = (left.transpose(0, 2, 1) @ members.T).transpose(1, 0, 2)  # [d, s, t]
    frame = ParametrizedFrame(~_fold(pairs > 0, 0, k, subsets=True))
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


def verify_embedding(
    embedding: Embedding,
    *,
    pipeline: str,
    cap_elements: int = DEFAULT_VERIFY_CAP,
    sample_size: int = 20000,
    seed: int = 0,
) -> VerificationReport:
    """Check the five embedding facts: injectivity, and preservation of
    zero, complement, join, and covering (a biconditional, both ways).

    Covering is checked by tabulating the frame's covering over the image
    masks once (:func:`~mereotop.frames.covering_table`) and comparing that
    table with the source's in one array operation; the witness is the
    first mismatch in C order (``np.argwhere``), i.e. the lex-first
    (a, b, d).  Above ``cap_elements`` source elements the comparison runs
    on ``sample_size`` seeded random triples instead, the witness is the
    first mismatching one in draw order, and the report is labeled
    "sampled".  The other witnesses are the first violating tuples in
    ascending element order.
    """
    source = embedding.source
    n = source.algebra.size
    img = embedding.image_masks
    full = (1 << embedding.frame.world_count) - 1

    inj = None
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
        if img[source.algebra.complement(a)] != full & ~img[a]:
            comp = (a,)
            break
    join = None
    for a in range(n):
        if join:
            break
        for b in range(n):
            if img[a | b] != img[a] | img[b]:
                join = (a, b)
                break
    table = source.covering.table
    if n <= cap_elements:
        mode = "exhaustive"
        found = np.argwhere(covering_table(embedding.frame, img) != table)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        drawn = [rng.randrange(n) for _ in range(3 * sample_size)]
        triples = np.array(drawn, dtype=np.intp).reshape(-1, 3)
        a, b, d = triples.T
        found = triples[covering_entries(embedding.frame, img, a, b, d) != table[a, b, d]]
    cov = tuple(int(i) for i in found[0]) if len(found) else None
    checks = (
        CheckResult("injective", inj is None, inj),
        CheckResult("preserves-zero", zero is None, zero),
        CheckResult("preserves-complement", comp is None, comp),
        CheckResult("preserves-join", join is None, join),
        CheckResult("preserves-covering", cov is None, cov),
    )
    return VerificationReport(pipeline, checks, mode)


def verify_c_preservation(embedding: Embedding) -> CheckResult:
    """Check, for every source element, that the algebraic internal
    connectedness of the element matches the frame-side internal
    connectedness of its image (type-2 frames only)."""
    if not isinstance(embedding.frame, EquivalenceFrame2):
        raise TypeError("internal connectedness transfers along type-2 frames")
    source = embedding.source
    witness = None
    for a in range(source.algebra.size):
        own = internally_connected_algebraic(source.covering, a)
        framed = frame2_internally_connected(embedding.frame, embedding.image_masks[a])
        if own != framed:
            witness = (a,)
            break
    return CheckResult("preserves-internal-connectedness", witness is None, witness)


# ---------------------------------------------------------------------------
# split pullback


@dataclass(frozen=True)
class SplitPullback:
    """The algebra-side pair pulled back from a frame-side split, plus the
    three facts checked about it."""

    a1: int
    a2: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def find_admissible_splits(
    embedding: Embedding, a: int, *, cap_size: int = 12
) -> list[tuple[int, int]]:
    """All ordered pairs of nonempty world sets whose union is the image of
    a and that are covered by the image's complement (type-2 frames)."""
    if not isinstance(embedding.frame, EquivalenceFrame2):
        raise TypeError("splits are searched on type-2 frames")
    embedding.source.algebra._require(a)
    s_mask = embedding.image_masks[a]
    if s_mask.bit_count() > cap_size:
        raise CapExceeded(
            f"split search over {s_mask.bit_count()} worlds exceeds cap {cap_size}"
        )
    complement = ((1 << embedding.frame.world_count) - 1) & ~s_mask
    found = []
    b = s_mask
    while b:
        rest = s_mask & ~b
        extra = b
        while True:
            d = rest | extra
            if d and frame2_covering(embedding.frame, b, d, complement):
                found.append((b, d))
            if extra == 0:
                break
            extra = (extra - 1) & b
        b = (b - 1) & s_mask
    return sorted(found)


def check_split_pullback(
    teca: TopologicalEca, embedding: Embedding, a: int, split1: int, split2: int
) -> SplitPullback:
    """Pull a frame-side split of h'(a) back to algebra elements.

    For each side, collect the atoms occurring in its worlds, take the
    union P of their point sets, and let a_i be the join of every element
    whose point set lies inside P.  Check that both parts are nonzero,
    that they join back to a, and that the pair is covered by the
    complement of a.
    """
    if not isinstance(embedding.frame, EquivalenceFrame2):
        raise TypeError("split pullback is defined on type-2 frames")
    algebra = embedding.source.algebra
    algebra._require(a)
    s_mask = embedding.image_masks[a]
    full_w = (1 << embedding.frame.world_count) - 1
    if not split1 or not split2:
        raise ValueError("both sides of the split must be nonempty")
    if split1 | split2 != s_mask:
        raise ValueError("the split must union to the image of a")
    if not frame2_covering(embedding.frame, split1, split2, full_w & ~s_mask):
        raise ValueError("the split is not covered by the image's complement")

    a1 = _join_inside(teca, _occurring_union(teca, embedding, split1))
    a2 = _join_inside(teca, _occurring_union(teca, embedding, split2))
    star = algebra.complement(a)
    nonzero = None if (a1 != 0 and a2 != 0) else (a1, a2)
    joins = None if (a1 | a2) == a else (a1, a2)
    covered = None if bool(teca.covering.table[a1, a2, star]) else (a1, a2, star)
    checks = (
        CheckResult("parts-nonzero", nonzero is None, nonzero),
        CheckResult("parts-join-to-whole", joins is None, joins),
        CheckResult("parts-covered-by-complement", covered is None, covered),
    )
    return SplitPullback(a1, a2, checks)


def _occurring_union(teca: TopologicalEca, embedding: Embedding, split: int):
    """Union of the point sets of the atoms occurring in the split's worlds."""
    region = teca.element_sets[0]
    for w in range(embedding.frame.world_count):
        if split >> w & 1:
            region = region | teca.source.atoms[embedding.worlds[w].atom_index]
    return region


def _join_inside(teca: TopologicalEca, region) -> int:
    """Join of every element whose point set lies inside the region."""
    out = 0
    for b in range(teca.eca.algebra.size):
        if teca.element_sets[b].issubset(region):
            out |= b
    return out


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
        "mode": report.mode,
        "checks": checks_document(report.checks),
        "frame": frame_doc,
        "embedding": {
            str(mask): [w for w in range(frame.world_count) if m >> w & 1]
            for mask, m in enumerate(embedding.image_masks)
        },
    }
