"""The three relational representation pipelines: canonical filter frames,
both equivalence-frame constructions, embedding verification, internal
connectedness preservation, and split pullbacks."""

from __future__ import annotations

import random
from functools import partial
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from example_data import (
    WORLD_COUNT,
    X_REGION_MASK,
    build,
    example_topology,
    powerset_covering,
    slice_generated_covering,
    star_space,
)
from mereotop import (
    Embedding,
    EquivalenceFrame1,
    EquivalenceFrame2,
    ParametrizedFrame,
    PointSet,
    build_parametrized_frame,
    build_type1,
    build_type2,
    discrete_covering,
    eca_from_rc,
    rc_algebra,
    verification_document,
    verify_embedding,
)
from mereotop import algebra as algebra_module
from mereotop import frames as frames_module
from mereotop import representations as representations_module
from mereotop import topology as topology_module
from mereotop.algebra import (
    CheckResult,
    CoveringRelation,
    FiniteBooleanAlgebra,
    check_eca,
    check_weca,
    covering_from_signatures,
    internally_connected_algebraic,
    signatures,
)
from mereotop.frames import _sigma_family, covering_slices, covering_table
from mereotop.representations import verify_c_preservation
from mereotop.topology import joins_by_mask, labeled_topology_from_document
from paper_claims import check_split_pullback, find_admissible_splits


def intersection_frame(rng: random.Random, w: int = 3) -> ParametrizedFrame:
    """R(U)(s, t) = every member of U relates s to t in a random base
    relation of its own (antitone, usually not symmetric)."""
    base = np.array([rng.random() < 0.7 for _ in range(w * w * w)]).reshape(w, w, w)
    return ParametrizedFrame(
        np.array([base[[x for x in range(w) if u >> x & 1]].all(axis=0) for u in range(1 << w)])
    )


def assert_relation_matches_closed_form(covering) -> None:
    k = covering.algebra.atom_count
    frame = build_parametrized_frame(covering).frame
    assert frame.world_count == k
    for u in range(1 << k):
        expected = oracles.pframe_relation_closed_form(
            covering.algebra.size, covering.table, k, u
        )
        assert frame.relations[u].tolist() == expected, u


def random_space(seed: int, max_n: int = 4):
    """The regular closed algebra of a random space of at most max_n points."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
    return rc_algebra(build(n, masks))


def from_space(builder, algebra):
    """The embedding ``builder`` makes of the covering of a regular closed
    algebra, with the worlds of its space's points."""
    return builder(eca_from_rc(algebra), algebra.point_signatures)


# ---------------------------------------------------------------------------
# the canonical filter frame


class TestParametrizedPipeline:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_relation_matches_closed_form_oracle(self, k):
        assert_relation_matches_closed_form(discrete_covering(k))

    @pytest.mark.parametrize("seed", range(8))
    def test_relation_matches_closed_form_on_topological_sources(self, seed):
        assert_relation_matches_closed_form(eca_from_rc(random_space(seed, max_n=4)))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_relation_matches_closed_form_on_slice_generated_weak_tables(self, k, seed):
        covering = slice_generated_covering(k, 0, random.Random(f"{k}:{seed}"))
        assert check_weca(covering).all_passed and not check_eca(covering).all_passed
        assert_relation_matches_closed_form(covering)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_passing_embedding_tabulates_no_frame_covering(self, k):
        # discrete and weak-only sources alike are confirmed on atom slices
        for covering in (discrete_covering(k), slice_generated_covering(k, 0, random.Random(k))):
            embedding = build_parametrized_frame(covering)
            with mock.patch.object(representations_module, "covering_table", wraps=covering_table) as table:
                assert verify_embedding(embedding).all_passed
            assert not table.called

    def test_refuses_a_table_that_fails_the_weak_axioms(self):
        # the all-false one-atom table fails WECA2 only: (0, 0) is not covered by 0
        empty = CoveringRelation(FiniteBooleanAlgebra(1), np.zeros((2, 2, 2), dtype=bool))
        assert [r.name for r in check_weca(empty).failures()] == ["WECA2"]
        with pytest.raises(ValueError, match="weak extended contact axioms"):
            build_parametrized_frame(empty)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_certificate_agrees_with_audit(self, k):
        # filter frames are antitone: R*(d) = R(d) for every d
        frame = build_parametrized_frame(discrete_covering(k)).frame
        for d in range(1 << k):
            assert oracles.naive_pframe_reach(k, frame.relations.__getitem__, d) == frame.relations[d].tolist()

    def test_image_is_atom_membership(self):
        # world i is the up-set of atom i, so h(a) is exactly the bit
        # pattern of a
        embedding = build_parametrized_frame(discrete_covering(3))
        assert embedding.image_masks == tuple(range(8))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_verifies_on_discrete(self, k):
        embedding = build_parametrized_frame(discrete_covering(k))
        report = verify_embedding(embedding)
        assert report.all_passed

    @pytest.mark.parametrize("seed", range(8))
    def test_verifies_on_weak_algebras_from_frames(self, seed):
        # powerset algebras of parametrized frames are weak algebras that
        # need not satisfy the full axioms
        covering = powerset_covering(intersection_frame(random.Random(seed)))
        assert check_weca(covering).all_passed
        embedding = build_parametrized_frame(covering)
        report = verify_embedding(embedding)
        assert report.all_passed


# ---------------------------------------------------------------------------
# equivalence-frame pipelines


class TestEquivalencePipelines:
    def test_example_world_count_and_classes(self):
        algebra = rc_algebra(example_topology())
        emb1 = from_space(build_type1, algebra)
        emb2 = from_space(build_type2, algebra)
        assert emb1.frame.world_count == WORLD_COUNT
        assert emb2.frame.world_count == WORLD_COUNT
        assert isinstance(emb1.frame, EquivalenceFrame1)
        assert isinstance(emb2.frame, EquivalenceFrame2)
        assert emb1.worlds == emb2.worlds
        assert emb1.image_masks == emb2.image_masks
        # worlds are (atom, point) couples with the point inside the atom
        for atom_index, point in emb1.worlds:
            assert point in algebra.atoms[atom_index]
        assert list(emb1.worlds) == sorted(emb1.worlds)

    def test_example_verifies(self):
        algebra = rc_algebra(example_topology())
        for builder in (build_type1, build_type2):
            report = verify_embedding(from_space(builder, algebra))
            assert report.all_passed, report

    @pytest.mark.parametrize("seed", [None, *range(10)], ids=["example", *map(str, range(10))])
    def test_image_is_subset_collection(self, seed):
        algebra = rc_algebra(example_topology()) if seed is None else random_space(seed)
        embedding = from_space(build_type1, algebra)
        n = embedding.source.algebra.size
        for a in range(n):
            target = algebra.element_sets[a]
            expected = 0
            for w, (atom_index, _) in enumerate(embedding.worlds):
                if algebra.atoms[atom_index].bits & ~target.bits == 0:
                    expected |= 1 << w
            assert embedding.image_masks[a] == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_random_spaces_verify(self, seed):
        algebra = random_space(seed, max_n=4)
        emb1 = from_space(build_type1, algebra)
        emb2 = from_space(build_type2, algebra)
        assert verify_embedding(emb1).all_passed
        assert verify_embedding(emb2).all_passed
        assert emb1.image_masks == emb2.image_masks

    def test_degenerate_single_point(self):
        emb = from_space(build_type2, rc_algebra(build(1, [])))
        assert emb.frame.world_count == 1
        report = verify_embedding(emb)
        assert report.all_passed and report.results[-1].name == "preserves-internal-connectedness"


def extended_algebras(max_k: int) -> list:
    """Every extended contact algebra with at most max_k atoms, once each:
    the coverings of the families whose closure holds every single atom."""
    found = {}
    for k in range(1, max_k + 1):
        for bits in range(1 << ((1 << k) - 1)):
            covering = covering_from_signatures(k, [s for s in range(1, 1 << k) if bits >> (s - 1) & 1])
            if covering._strength == "ECA":
                found.setdefault((k, signatures(covering)), covering)
    return list(found.values())


def star_model(points):
    """The Alexandrov model of S* = ``points``: one open core point per atom,
    and a boundary point b_σ for each σ of two or more atoms, whose least
    open set is b_σ and the cores of σ (example_data.star_space)."""
    return rc_algebra(star_space(max(points).bit_length(), [sigma for sigma in points if sigma.bit_count() >= 2]))


def keyed_frame(embedding, points, relabel):
    """World count, partitions and images of a type-1 or type-2 embedding,
    with each world (i, x) named by (atom i, signature of point x) as masks
    relabelled by ``relabel``."""
    keys = [(relabel[1 << i], relabel[points[x]]) for i, x in embedding.worlds]
    frame = embedding.frame
    partitions = [frame.classes] if isinstance(frame, EquivalenceFrame1) else [frame.classes1, frame.classes2]
    blocks = [
        {frozenset(key for key, c in zip(keys, classes) if c == cid) for cid in classes} for classes in partitions
    ]
    images = {
        relabel[a]: frozenset(key for w, key in enumerate(keys) if m >> w & 1)
        for a, m in enumerate(embedding.image_masks)
    }
    return frame.world_count, blocks, images


class TestStarModel:
    """A finite extended contact algebra is the covering of its S*, and S*
    is the space of signatures of a model: the frames built from S* are
    those of the model, after relabelling its atoms."""

    def test_every_eca_up_to_three_atoms_is_its_models_covering(self):
        algebras = extended_algebras(3)
        assert [c.algebra.atom_count for c in algebras].count(3) == 15 and len(algebras) == 18
        for covering in algebras:
            points = signatures(covering)
            model = star_model(points)
            # the model's atom j holds the one core point its index names
            core = [(atom.bits & -atom.bits).bit_length() - 1 for atom in model.atoms]
            relabel = joins_by_mask(0, [1 << i for i in core])
            derived = eca_from_rc(model)
            assert (covering.table[np.ix_(relabel, relabel, relabel)] == derived.table).all(), points
            for builder in (build_type1, build_type2):
                own = builder(covering, points)
                modelled = builder(derived, model.point_signatures)
                identity = range(covering.algebra.size)
                assert keyed_frame(own, points, identity) == keyed_frame(modelled, model.point_signatures, relabel)
                assert verify_embedding(own).all_passed


# ---------------------------------------------------------------------------
# verification internals


class TestVerifyEmbedding:
    def test_injectivity_witness_is_lexicographically_first(self):
        real = from_space(build_type1, rc_algebra(build(2, [0b01])))
        n = real.source.algebra.size
        broken = Embedding(
            source=real.source,
            frame=real.frame,
            image_masks=tuple(0 for _ in range(n)),
            worlds=real.worlds,
        )
        report = verify_embedding(broken)
        by_name = {c.name: c for c in report.results}
        assert not by_name["injective"].passed
        assert by_name["injective"].witness == (0, 1)
        assert by_name["preserves-zero"].passed


def oracle_covering(frame):
    """The literal covering of the frame, from tests/oracles.py."""
    if isinstance(frame, EquivalenceFrame1):
        return lambda a, b, d: oracles.naive_frame1_covering(frame.classes, a, b, d)
    if isinstance(frame, EquivalenceFrame2):
        return lambda a, b, d: oracles.naive_frame2_covering(
            frame.classes1, frame.classes2, a, b, d
        )
    return lambda a, b, d: oracles.naive_pframe_covering(
        frame.world_count, frame.relations.__getitem__, a, b, d
    )


def literal_covering_witness(embedding):
    """First (a, b, d) in ascending order where the source covering and the
    oracle's frame covering of the images disagree."""
    holds = oracle_covering(embedding.frame)
    table = embedding.source.table
    img = embedding.image_masks
    n = len(img)
    for a in range(n):
        for b in range(n):
            for d in range(n):
                if bool(table[a, b, d]) != holds(img[a], img[b], img[d]):
                    return (a, b, d)
    return None


def with_flipped_source(embedding, rng, flips):
    """The embedding with `flips` distinct seeded source covering entries
    negated."""
    table = embedding.source.table.copy()
    n = len(table)
    for cell in rng.sample(range(n**3), flips):
        index = (cell // (n * n), cell // n % n, cell % n)
        table[index] = not table[index]
    source = CoveringRelation(embedding.source.algebra, table)
    return Embedding(source, embedding.frame, embedding.image_masks, embedding.worlds)


def with_swapped_images(embedding, rng):
    """The embedding with the images of two seeded nonzero elements swapped."""
    img = list(embedding.image_masks)
    i, j = rng.sample(range(1, len(img)), 2)
    img[i], img[j] = img[j], img[i]
    return Embedding(embedding.source, embedding.frame, tuple(img), embedding.worlds)


def covering_witness(report):
    (check,) = [c for c in report.results if c.name == "preserves-covering"]
    assert check.passed == (check.witness is None)
    return check.witness


def spied_gate():
    """A spy on verify_embedding's covering test on atom-level data."""
    return mock.patch.object(
        representations_module, "_covering_on_slices", wraps=representations_module._covering_on_slices
    )


def verified_with_slice_verdict(embedding):
    """verify_embedding's report and its slice verdict, read off spies:
    None where the covering test on atom-level data (σ-family flags, else
    atom slices) was not run (it decided nothing), else True where it
    confirmed covering and no frame table was tabulated, False where the
    covering_table fallback ran."""
    with (
        spied_gate() as gate,
        mock.patch.object(representations_module, "covering_table", wraps=covering_table) as table,
    ):
        report = verify_embedding(embedding)
    assert gate.call_count <= 1 and table.call_count <= 1 and (gate.called or table.called)
    return report, (not table.called if gate.called else None)


def assert_slice_verdict_matches_tables(embedding):
    """Where the atom slices decide covering, they decide it as comparing
    the source's table with the frame's covering tabulated over the
    images does.  Returns the report and the slice verdict."""
    report, verdict = verified_with_slice_verdict(embedding)
    if verdict is not None:
        frame_table = covering_table(embedding.frame, embedding.image_masks)
        assert verdict == (frame_table == embedding.source.table).all()
    return report, verdict


def verified_against_literal_covering(embedding):
    """verify_embedding's report, after checking its covering witness
    against the literal scan and the slice verdict against the tables; a
    failing covering check always comes from the covering_table fallback."""
    report, verdict = assert_slice_verdict_matches_tables(embedding)
    witness = covering_witness(report)
    assert witness == literal_covering_witness(embedding)
    assert witness is None or verdict is not True
    return report


BUILDERS = {  # kind -> the embedding of the covering of a regular closed algebra
    "type1": partial(from_space, build_type1),
    "type2": partial(from_space, build_type2),
    "parametrized": lambda algebra: build_parametrized_frame(eca_from_rc(algebra)),
}


def multi_atom_space(seed):
    """The regular closed algebra of a random space, with 3 or 4 atoms."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, 6)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(2, 5))]
        algebra = rc_algebra(build(n, masks))
        if 3 <= len(algebra.atoms) <= 4:
            return algebra


class TestCoveringWitnessMatchesOracles:
    """The tabulated covering check reports the same lex-first witness as a
    literal scan with the oracle evaluators, on corrupted embeddings."""

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_flipped_source(self, kind, seed):
        rng = random.Random(seed)
        embedding = BUILDERS[kind](multi_atom_space(seed))
        broken = with_flipped_source(embedding, rng, rng.randint(1, 6))
        assert literal_covering_witness(broken) is not None
        verified_against_literal_covering(broken)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_swapped_images(self, kind, seed):
        rng = random.Random(seed)
        broken = with_swapped_images(BUILDERS[kind](multi_atom_space(seed)), rng)
        verified_against_literal_covering(broken)

    @pytest.mark.parametrize("seed", range(4))
    def test_asymmetric_parametrized_frame(self, seed):
        # the identity embedding of a non-symmetric antitone frame into its
        # own powerset algebra
        rng = random.Random(seed)
        frame = intersection_frame(rng)
        source = powerset_covering(frame)
        embedding = Embedding(source, frame, tuple(range(8)))
        assert verify_embedding(embedding).all_passed
        for broken in (
            with_flipped_source(embedding, rng, rng.randint(1, 6)),
            with_swapped_images(embedding, rng),
        ):
            verified_against_literal_covering(broken)

    def test_type2_wider_than_64_worlds(self):
        # two open blocks of 29 points and 6 points in the closure of both:
        # two atoms of 35 points each, so 70 worlds
        n = 64
        embedding = from_space(build_type2, rc_algebra(build(n, [(1 << 29) - 1, ((1 << 29) - 1) << 29])))
        assert embedding.frame.world_count == 70
        assert verify_embedding(embedding).all_passed
        broken = with_flipped_source(embedding, random.Random(3), 1)
        assert literal_covering_witness(broken) is not None
        verified_against_literal_covering(broken)


HOMOMORPHISM_CHECKS = ("injective", "preserves-zero", "preserves-complement", "preserves-join")


def with_images(embedding, img):
    return Embedding(embedding.source, embedding.frame, tuple(img), embedding.worlds)


def from_atom_images(embedding, atoms):
    """The embedding with the image of x replaced by the union of the given
    atom images over the bits of x."""
    return with_images(embedding, joins_by_mask(0, atoms))


def assert_matches_literal_loops(embedding):
    """Every witness of the report equals the literal loop's: the
    homomorphism facts from tests/oracles.py, covering from the oracle
    frame evaluators; and the slice verdict agrees with the tables."""
    report = verified_against_literal_covering(embedding)
    got = {c.name: c.witness for c in report.results}
    expected = oracles.naive_homomorphism_witnesses(
        embedding.image_masks, embedding.frame.world_count
    )
    assert {name: got[name] for name in HOMOMORPHISM_CHECKS} == expected
    assert all(c.passed == (c.witness is None) for c in report.results)
    return got


EQUIVALENCE_BUILDERS = {kind: BUILDERS[kind] for kind in ("type1", "type2")}


class TestFamilyBuiltSourceTable:
    """A source built from its points' signatures generates its table on
    the first read that needs it, here the covering_table fallback."""

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_frame(self, kind, seed, monkeypatch):
        # the second partition made one class, or one class per world: where
        # covering fails, the slices do not confirm it, the table is
        # generated once, and the report is that of the table-built source
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_space(seed))
        w, img, worlds = embedding.frame.world_count, embedding.image_masks, embedding.worlds
        tabled = CoveringRelation(embedding.source.algebra, embedding.source.table)
        calls = []
        generate = algebra_module._covering_of_slices

        def counted(slices, k):
            calls.append(k)
            return generate(slices, k)

        monkeypatch.setattr(algebra_module, "_covering_of_slices", counted)
        broken = 0
        for classes in ((0,) * w, tuple(range(w))):
            if kind == "type1":
                frame = EquivalenceFrame1(w, classes)
            else:
                frame = EquivalenceFrame2(w, embedding.frame.classes1, classes)
            expected = verify_embedding(Embedding(tabled, frame, img, worlds))
            if covering_witness(expected) is None:
                continue
            broken += 1
            source = eca_from_rc(multi_atom_space(seed))
            calls.clear()
            report = verify_embedding(Embedding(source, frame, img, worlds))
            assert len(calls) == 1 and "table" in vars(source) and report == expected
            assert covering_witness(report) == literal_covering_witness(Embedding(source, frame, img, worlds))
        assert broken


class TestHomomorphismVerdicts:
    """The closed-form verdicts report the witnesses of the literal loops."""

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_all_images_zero(self, kind, seed):
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_space(seed))
        got = assert_matches_literal_loops(with_images(embedding, [0] * len(embedding.image_masks)))
        assert got["injective"] == (0, 1)
        assert got["preserves-zero"] is None and got["preserves-join"] is None

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_nonzero_image_of_zero_keeps_join(self, kind, seed):
        # one world added to every image: join still holds, zero does not
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_space(seed))
        world = 1 << random.Random(seed).randrange(embedding.frame.world_count)
        broken = with_images(embedding, [m | world for m in embedding.image_masks])
        got = assert_matches_literal_loops(broken)
        assert got["preserves-zero"] == (0,)
        assert got["preserves-join"] is None

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_two_images_swapped(self, kind, seed):
        broken = with_swapped_images(EQUIVALENCE_BUILDERS[kind](multi_atom_space(seed)), random.Random(seed))
        got = assert_matches_literal_loops(broken)
        assert got["injective"] is None and got["preserves-join"] is not None

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_world_dropped_from_an_atom(self, kind, seed):
        rng = random.Random(seed)
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_space(seed))
        k = embedding.source.algebra.atom_count
        atoms = [embedding.image_masks[1 << i] for i in range(k)]
        i = rng.randrange(k)
        atoms[i] &= ~(1 << rng.choice([w for w in range(embedding.frame.world_count) if atoms[i] >> w & 1]))
        got = assert_matches_literal_loops(from_atom_images(embedding, atoms))
        assert got["preserves-complement"] == (0,)
        assert got["preserves-zero"] is None and got["preserves-join"] is None

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_complement_broken_alone(self, kind, seed):
        # one atom's image also takes one world of another atom, which keeps
        # a second world, so the images stay distinct
        rng = random.Random(seed)
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_space(seed))
        k = embedding.source.algebra.atom_count
        atoms = [embedding.image_masks[1 << i] for i in range(k)]
        j = rng.choice([j for j in range(k) if atoms[j].bit_count() >= 2])
        i = rng.choice([i for i in range(k) if i != j])
        atoms[i] |= atoms[j] & -atoms[j]
        got = assert_matches_literal_loops(from_atom_images(embedding, atoms))
        assert [name for name in HOMOMORPHISM_CHECKS if got[name] is not None] == ["preserves-complement"]

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_list_of_images_takes_the_closed_form(self, kind, seed):
        class CountingList(list):
            reads = 0

            def __getitem__(self, i):
                CountingList.reads += 1
                return super().__getitem__(i)

        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_space(seed))
        n = len(embedding.image_masks)
        images = CountingList(embedding.image_masks)
        as_list = Embedding(embedding.source, embedding.frame, images, embedding.worlds)
        report = verify_embedding(as_list)
        assert report == verify_embedding(embedding) and report.all_passed
        assert CountingList.reads < n * n  # the literal (a, b) join loop never ran

    @given(
        st.sampled_from(sorted(EQUIVALENCE_BUILDERS)),
        st.integers(1, 3),
        st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_image_tuples(self, kind, k, worlds, rng):
        n = 1 << k
        classes1 = tuple(rng.randrange(worlds) for _ in range(worlds))
        classes2 = tuple(rng.randrange(worlds) for _ in range(worlds))
        frame = (
            EquivalenceFrame1(worlds, classes1)
            if kind == "type1"
            else EquivalenceFrame2(worlds, classes1, classes2)
        )
        source = CoveringRelation(
            discrete_covering(k).algebra,
            np.array([rng.random() < 0.5 for _ in range(n**3)]).reshape(n, n, n),
        )
        if rng.random() < 0.5:  # unions of atom images: the closed-form covering path
            img = joins_by_mask(0, [rng.getrandbits(worlds) for _ in range(k)])
        else:
            img = [rng.getrandbits(worlds) for _ in range(n)]
        assert_matches_literal_loops(Embedding(source, frame, tuple(img)))


def equivalence_embeddings():
    """Every type-1 and type-2 embedding of the sweeps in this file."""
    spaces = [rc_algebra(example_topology())]
    spaces += [random_space(seed) for seed in range(10)]
    spaces += [multi_atom_space(seed) for seed in range(4)]
    spaces.append(rc_algebra(build(64, [(1 << 29) - 1, ((1 << 29) - 1) << 29])))
    return [from_space(builder, algebra) for algebra in spaces for builder in (build_type1, build_type2)]


def family_table(frame, atoms):
    """The covering of the σ family of the given atom images, tabulated."""
    return covering_from_signatures(len(atoms), _sigma_family(frame, atoms)).table


def drawn_frame(rng, worlds, type2):
    classes = [tuple(rng.randrange(worlds) for _ in range(worlds)) for _ in range(2)]
    return EquivalenceFrame2(worlds, *classes) if type2 else EquivalenceFrame1(worlds, classes[0])


class TestAtomFamily:
    """The covering of the atom images' σ family (frames._sigma_family)
    equals the frame's covering tabulated over the images themselves, and
    its atom slices decide the covering check as the tables do."""

    def test_matches_covering_table_on_the_sweeps(self):
        embeddings = equivalence_embeddings()
        assert max(e.frame.world_count for e in embeddings) == 70
        for embedding in embeddings:
            img = embedding.image_masks
            atoms = [img[1 << i] for i in range(embedding.source.algebra.atom_count)]
            table = family_table(embedding.frame, atoms)
            assert (table == covering_table(embedding.frame, img)).all()
            assert (table == embedding.source.table).all()
            assert assert_slice_verdict_matches_tables(embedding)[1] is True

    @given(st.integers(1, 3), st.integers(1, 6), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_covering_table_on_overlapping_images(self, k, worlds, type2, rng):
        frame = drawn_frame(rng, worlds, type2)
        atoms = [rng.getrandbits(worlds) for _ in range(k)]
        assert (family_table(frame, atoms) == covering_table(frame, joins_by_mask(0, atoms))).all()

    def test_rejects_masks_outside_the_worlds(self):
        with pytest.raises(ValueError):
            covering_slices(EquivalenceFrame1(2, (0, 1)), [1, 4])

    def test_class_sigma_repeating_a_world_sigma_is_kept_once(self):
        # every world is its own class, so each class σ repeats a world σ
        frame = EquivalenceFrame1(3, (0, 1, 2))
        atoms = [0b011, 0b110]
        family = _sigma_family(frame, atoms)
        assert sorted(family) == [1, 2, 3]
        masks = joins_by_mask(0, atoms)
        table = covering_table(frame, masks)
        for (i, a), (j, b), (l, d) in product(enumerate(masks), repeat=3):
            assert table[i, j, l] == oracles.naive_frame1_covering(frame.classes, a, b, d)
        assert (family_table(frame, atoms) == table).all()

    def test_slice_verdict_on_drawn_frames(self):
        # the source is the frame's covering over perturbed atom images
        # (a world dropped or added), with 0-3 entries flipped
        verdicts = {True: 0, False: 0, None: 0}
        for seed in range(600):
            rng = random.Random(seed)
            k, worlds = rng.randint(1, 3), rng.randint(1, 6)
            frame = drawn_frame(rng, worlds, rng.random() < 0.5)
            atoms = [rng.getrandbits(worlds) for _ in range(k)]
            perturbed = [a ^ (1 << rng.randrange(worlds)) if rng.random() < 0.3 else a for a in atoms]
            table = family_table(frame, perturbed).copy()
            n = 1 << k
            for cell in rng.sample(range(n**3), min(rng.randint(0, 3), n**3)):
                table[cell // (n * n), cell // n % n, cell % n] ^= True
            source = CoveringRelation(FiniteBooleanAlgebra(k), table)
            embedding = from_atom_images(Embedding(source, frame, (0,) * n), atoms)
            verdicts[assert_slice_verdict_matches_tables(embedding)[1]] += 1
        assert min(verdicts.values()) >= 40, verdicts


def drawn_parametrized_frame(rng, worlds):
    """An antitone frame (intersections of per-world relations), or one
    with every relation drawn at random, which is seldom antitone."""
    if rng.random() < 0.5:
        return intersection_frame(rng, worlds)
    cells = [rng.random() < 0.6 for _ in range((1 << worlds) * worlds * worlds)]
    return ParametrizedFrame(np.array(cells).reshape(1 << worlds, worlds, worlds))


def with_flipped_relations(frame, rng, count):
    """The frame with ``count`` seeded relation entries R(U)(s, t) flipped."""
    relations = frame.relations.copy()
    for cell in rng.sample(range(relations.size), min(count, relations.size)):
        relations.flat[cell] ^= True
    return ParametrizedFrame(relations)


class TestParametrizedSlices:
    """A parametrized frame's covering over the joins of atom images is
    the table its atom slices generate, for any relations, antitone or
    not; so the slices decide the covering check as the tables do."""

    @given(st.integers(1, 3), st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_slices_generate_covering_table(self, k, worlds, rng):
        frame = drawn_parametrized_frame(rng, worlds)
        atoms = [rng.getrandbits(worlds) for _ in range(k)]
        generated = algebra_module._covering_of_slices(covering_slices(frame, atoms), k)
        assert (generated == covering_table(frame, joins_by_mask(0, atoms))).all()

    def test_slice_verdict_on_drawn_frames(self):
        # the source is the covering of a drawn frame over the joins of its
        # atom images; verified against that frame, the frame with 1-3
        # relation entries flipped, the embedding with two images swapped,
        # and the source with one entry flipped (often no weak table)
        verdicts = {True: 0, False: 0, None: 0}
        variants = dict.fromkeys(("whole", "relations", "images", "source", "not antitone"), 0)
        for seed in range(300):
            rng = random.Random(seed)
            k, worlds = rng.randint(1, 3), rng.randint(1, 4)
            frame = drawn_parametrized_frame(rng, worlds)
            img = joins_by_mask(0, [rng.getrandbits(worlds) for _ in range(k)])
            source = CoveringRelation(FiniteBooleanAlgebra(k), covering_table(frame, img))
            embedding = Embedding(source, frame, img)
            broken = {
                "whole": embedding,
                "relations": Embedding(source, with_flipped_relations(frame, rng, rng.randint(1, 3)), img),
                "source": with_flipped_source(embedding, rng, 1),
            }
            if k >= 2:
                broken["images"] = with_swapped_images(embedding, rng)
            for name, variant in broken.items():
                verdict = assert_slice_verdict_matches_tables(variant)[1]
                verdicts[verdict] += 1
                variants[name] += 1
                if not (frames_module._reach(variant.frame) == variant.frame.relations).all():
                    variants["not antitone"] += 1
        assert min(verdicts.values()) >= 40, verdicts
        assert min(variants.values()) >= 100, variants


def c_witness_from_oracles(embedding):
    """The first element whose literal algebraic and frame-side internal
    connectedness differ, from tests/oracles.py."""
    n = embedding.source.algebra.size
    table = embedding.source.table
    frame = embedding.frame
    for a in range(n):
        own = oracles.naive_internally_connected(n, table, a)
        framed = oracles.naive_frame2_internally_connected(frame.classes1, frame.classes2, embedding.image_masks[a])
        if own != framed:
            return (a,)
    return None


def verified_with_c_verdict(embedding):
    """verify_embedding's report on a type-2 embedding and the slice verdict
    it handed to verify_c_preservation, read off a spy (False: covering
    did not pass on atom slices)."""
    calls = []

    def spy(embedding, on_slices):
        calls.append((embedding, on_slices, verify_c_preservation(embedding, on_slices)))
        return calls[-1][2]

    with mock.patch.object(representations_module, "verify_c_preservation", spy):
        report = verify_embedding(embedding)
    ((handed, on_slices, check),) = calls
    assert handed is embedding and report.results[-1] is check
    assert check.name == "preserves-internal-connectedness"
    assert isinstance(on_slices, bool)
    if not report.results[4].passed:
        assert not on_slices
    return report, on_slices


def frame_embedding(frame, atoms):
    """The embedding of the frame's own covering over the joins of the
    given atom images, so covering is preserved."""
    img = joins_by_mask(0, atoms)
    covering = CoveringRelation(FiniteBooleanAlgebra(len(atoms)), covering_table(frame, img))
    return Embedding(covering, frame, img)


class TestCPreservationOnAtoms:
    """c° decided from the atom images: where the closed form is taken it
    agrees with the literal oracles, and each broken condition falls back
    to the element-by-element comparison and its witness."""

    def test_closed_form_agrees_with_the_oracles_on_drawn_frames(self):
        hits = 0
        for seed in range(1500):
            rng = random.Random(seed)
            k, worlds = rng.randint(1, 3), rng.randint(1, 6)
            blocks = [rng.randrange(k) for _ in range(worlds)]
            atoms = [sum(1 << w for w in range(worlds) if blocks[w] == i) for i in range(k)]
            if rng.random() < 0.2:
                atoms[rng.randrange(k)] ^= 1 << rng.randrange(worlds)
            classes1 = tuple(blocks) if rng.random() < 0.5 else tuple(rng.randrange(worlds) for _ in range(worlds))
            classes2 = tuple(rng.randrange(worlds) for _ in range(worlds))
            embedding = frame_embedding(EquivalenceFrame2(worlds, classes1, classes2), atoms)
            report, on_slices = verified_with_c_verdict(embedding)
            if representations_module._c_preserved_on_atoms(embedding, on_slices):
                hits += 1
                algebraic = internally_connected_algebraic(embedding.source)
                for a, m in enumerate(embedding.image_masks):
                    assert algebraic[a] == oracles.naive_frame2_internally_connected(classes1, classes2, m)
            assert report.results[-1].witness == c_witness_from_oracles(embedding)
        assert hits >= 200, hits

    def test_closed_form_with_classes_across_atom_images(self):
        # a composite class may straddle an atom image and still leave the
        # closed form sound: it lies inside A(a) exactly when σ_c ⊆ a
        straddling = 0
        for seed in range(1500):
            rng = random.Random(seed)
            k = rng.randint(2, 3)
            worlds = k + rng.randint(1, 2)
            blocks = list(range(k)) + [rng.randrange(k) for _ in range(worlds - k)]
            rng.shuffle(blocks)
            atoms = [sum(1 << w for w in range(worlds) if blocks[w] == i) for i in range(k)]
            classes = [tuple(rng.randrange(worlds) for _ in range(worlds)) for _ in range(2)]
            embedding = frame_embedding(EquivalenceFrame2(worlds, *classes), atoms)
            report, on_slices = verified_with_c_verdict(embedding)
            composite = embedding.frame.covering_classes
            if not representations_module._c_preserved_on_atoms(embedding, on_slices) or all(
                a & c in (0, a) for a in atoms for c in composite
            ):
                continue
            straddling += 1
            algebraic = internally_connected_algebraic(embedding.source)
            for a, m in enumerate(embedding.image_masks):
                assert algebraic[a] == oracles.naive_frame2_internally_connected(*classes, m)
            assert report.results[-1].witness is None
        assert straddling >= 15, straddling

    @staticmethod
    def fallback_witness(embedding, monkeypatch):
        calls = []
        algebraic = representations_module.internally_connected_algebraic

        def counted(covering):
            calls.append(covering)
            return algebraic(covering)

        monkeypatch.setattr(representations_module, "internally_connected_algebraic", counted)
        report, on_slices = verified_with_c_verdict(embedding)
        assert not representations_module._c_preserved_on_atoms(embedding, on_slices)
        # covering holds on atom slices in each frame but the one without a
        # verdict, so the fallback comes from the condition that is broken
        assert on_slices == (embedding.source._strength is not None)
        check = report.results[-1]
        assert len(calls) == 1  # the element-by-element comparison ran
        assert check.passed == (check.witness is None)
        return check.witness

    def test_multi_world_atom_without_its_class(self, monkeypatch):
        # atom 0 has worlds 0 and 1, and the one composite class is every
        # world: atom 0 is connected algebraically but split in the frame
        embedding = frame_embedding(EquivalenceFrame2(3, (0, 0, 1), (0, 0, 0)), [0b011, 0b100])
        assert all(r.passed for r in verify_embedding(embedding).results[:-1])
        assert self.fallback_witness(embedding, monkeypatch) == c_witness_from_oracles(embedding) == (1,)

    def test_class_not_a_union_of_atom_images(self, monkeypatch):
        # the composite class {2} is half of atom 1's image, which no class
        # glues: split in the frame, connected algebraically
        embedding = frame_embedding(EquivalenceFrame2(3, (0, 0, 1), (0, 0, 1)), [0b001, 0b110])
        assert embedding.frame.covering_classes == (0b011, 0b100)
        assert self.fallback_witness(embedding, monkeypatch) == c_witness_from_oracles(embedding) == (2,)

    def test_overlapping_atom_images(self, monkeypatch):
        # atoms 0 and 1 share their one world: atom 0 is connected in the
        # frame but covered by its complement, which holds that world
        embedding = frame_embedding(EquivalenceFrame2(2, (0, 1), (0, 1)), [0b10, 0b10, 0b01])
        assert self.fallback_witness(embedding, monkeypatch) == c_witness_from_oracles(embedding) == (1,)

    def test_atom_images_that_miss_a_world(self, monkeypatch):
        # both atoms have world 1 and neither has world 0: their sizes add
        # up to the two worlds, yet they do not partition them, and atom 0
        # is connected in the frame but covered by its complement, whose
        # image is the same world
        embedding = frame_embedding(EquivalenceFrame2(2, (0, 0), (0, 0)), [0b10, 0b10])
        assert self.fallback_witness(embedding, monkeypatch) == c_witness_from_oracles(embedding) == (1,)

    @pytest.mark.parametrize("seed", range(4))
    def test_source_without_a_verdict(self, seed, monkeypatch):
        # a built embedding whose source table, with one atom covered by
        # its complement, is no covering of a family
        embedding = from_space(build_type2, multi_atom_space(seed))
        n = embedding.source.algebra.size
        atom = 1 << random.Random(seed).randrange(embedding.source.algebra.atom_count)
        table = embedding.source.table.copy()
        table[atom, atom, (n - 1) ^ atom] = True
        broken = Embedding(
            CoveringRelation(embedding.source.algebra, table),
            embedding.frame,
            embedding.image_masks,
            embedding.worlds,
        )
        assert broken.source._strength is None
        witness = self.fallback_witness(broken, monkeypatch)
        assert witness == c_witness_from_oracles(broken) and witness is not None

    def test_passing_random_trial_builds_no_frame_table_and_glues_nothing(self, monkeypatch, capsys):
        # no covering is generated (the trial's covering holds its family
        # and never builds its table), each frame's covering is tested on
        # atom-level data once, and neither frame's table nor any gluing is
        # computed
        from mereotop import cli

        generations, gluings = [], []
        generate, glue = algebra_module._covering_of_slices, topology_module.glued_components

        def counted_generate(slices, k):
            generations.append(k)
            return generate(slices, k)

        def counted_glue(mask, blocks):
            gluings.append(mask)
            return glue(mask, blocks)

        monkeypatch.setattr(algebra_module, "_covering_of_slices", counted_generate)
        for module in (topology_module, frames_module):
            monkeypatch.setattr(module, "glued_components", counted_glue)
        built = []

        def recorded(*args, **kwargs):
            built.append(eca_from_rc(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "eca_from_rc", recorded)
        for seed in (3, 7):
            generations.clear()
            built.clear()
            with (
                spied_gate() as gate,
                mock.patch.object(representations_module, "covering_table", wraps=covering_table) as table,
            ):
                assert cli.main(["random", "--seed", str(seed), "--trials", "1", "--json"]) == 0
            assert len(generations) == 0 and gluings == []
            assert gate.call_count == 2 and not table.called
            (covering,) = built
            assert "table" not in vars(covering)
        capsys.readouterr()


class TestCPreservationWitness:
    """The c° check reports the first element whose algebraic and
    frame-side verdicts differ, as a literal loop over the oracles does,
    beside the covering witness of the covering_table fallback."""

    @staticmethod
    def literal_witness(embedding):
        n = embedding.source.algebra.size
        table = embedding.source.table
        frame = embedding.frame
        for a in range(n):
            own = oracles.naive_internally_connected(n, table, a)
            framed = oracles.naive_frame2_internally_connected(
                frame.classes1, frame.classes2, embedding.image_masks[a]
            )
            if own != framed:
                return (a,)
        return None

    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_source(self, seed):
        rng = random.Random(seed)
        embedding = from_space(build_type2, multi_atom_space(seed))
        n = embedding.source.algebra.size
        table = embedding.source.table.copy()
        for _ in range(rng.randint(1, 4)):
            b, d = rng.randrange(1, n), rng.randrange(1, n)
            table[b, d, (n - 1) ^ (b | d)] ^= True
        broken = Embedding(
            CoveringRelation(embedding.source.algebra, table),
            embedding.frame,
            embedding.image_masks,
            embedding.worlds,
        )
        check = verified_against_literal_covering(broken).results[-1]
        assert check.witness == self.literal_witness(broken)
        assert check.passed == (check.witness is None)

    @pytest.mark.parametrize("seed", range(4))
    def test_split_atoms(self, seed):
        # an atom covered by its own complement is split algebraically but
        # not in the frame; two such atoms give two mismatches
        embedding = from_space(build_type2, multi_atom_space(seed))
        n = embedding.source.algebra.size
        first, second = sorted(
            1 << i for i in random.Random(seed).sample(range(embedding.source.algebra.atom_count), 2)
        )
        table = embedding.source.table.copy()
        for atom in (first, second):
            table[atom, atom, (n - 1) ^ atom] = True
        broken = Embedding(
            CoveringRelation(embedding.source.algebra, table),
            embedding.frame,
            embedding.image_masks,
            embedding.worlds,
        )
        expected = self.literal_witness(broken)
        assert expected is not None and expected[0] <= first
        assert verified_against_literal_covering(broken).results[-1].witness == expected


EMBEDDING_CHECKS = (*HOMOMORPHISM_CHECKS, "preserves-covering")


class TestOneVerificationCall:
    """verify_embedding is the only verification call: the report names
    its pipeline after the frame class, ends with c° for type 2 only, and
    tests the frame's covering on atom-level data once for each embedding,
    of every kind."""

    @pytest.mark.parametrize("seed", [None, *range(6)], ids=["example", *map(str, range(6))])
    def test_names_the_pipeline_and_its_checks_after_the_frame_class(self, seed):
        algebra = rc_algebra(example_topology()) if seed is None else random_space(seed)
        for kind, builder in BUILDERS.items():
            embedding = builder(algebra)
            report = verify_embedding(embedding)
            doc = verification_document(report, embedding)
            assert doc["pipeline"] == doc["frame"]["kind"] == kind
            expected = list(EMBEDDING_CHECKS) + ["preserves-internal-connectedness"] * (kind == "type2")
            assert [r.name for r in report.results] == [c["name"] for c in doc["checks"]] == expected
            assert report.all_passed

    @pytest.mark.parametrize("seed", range(6))
    def test_one_slice_read_per_embedding(self, seed):
        # parametrized embeddings too: a passing one tabulates no covering
        algebra = multi_atom_space(seed)
        for kind, builder in BUILDERS.items():
            embedding = builder(algebra)
            with (
                spied_gate() as gate,
                mock.patch.object(representations_module, "covering_table", wraps=covering_table) as table,
            ):
                assert verify_embedding(embedding).all_passed
            assert gate.call_count == 1 and not table.called, kind

    def test_c_is_told_on_slices_only_when_covering_passed_on_slices(self):
        # type-2 embeddings of the sweeps, whole and broken: on_slices is
        # handed on iff zero, join and covering hold and the source has a
        # verdict, and then the frame's atom slices are the source's
        handed = {True: 0, False: 0}
        for i, embedding in enumerate(equivalence_embeddings()[1::2]):
            rng = random.Random(i)
            k = embedding.source.algebra.atom_count
            variants = [embedding, with_flipped_source(embedding, rng, 1)]
            if k >= 2:
                variants.append(with_swapped_images(embedding, rng))
                atoms = [embedding.image_masks[1 << j] for j in range(k)]
                variants.append(frame_embedding(embedding.frame, atoms[::-1]))
            for variant in variants:
                report, on_slices = verified_with_c_verdict(variant)
                passed = {r.name: r.passed for r in report.results}
                confirmed = all(passed[name] for name in ("preserves-zero", "preserves-join", "preserves-covering"))
                assert on_slices == (confirmed and variant.source._strength is not None)
                if on_slices:
                    atoms = [variant.image_masks[1 << j] for j in range(k)]
                    assert (covering_slices(variant.frame, atoms) == variant.source._slices).all()
                handed[on_slices] += 1
        assert min(handed.values()) >= 10, handed

    @pytest.mark.parametrize("kind", ["type1", "parametrized"])
    def test_c_preservation_refuses_other_frames(self, kind):
        embedding = BUILDERS[kind](rc_algebra(example_topology()))
        with pytest.raises(TypeError, match="type-2 frames"):
            verify_c_preservation(embedding, None)


def counted_family_products(monkeypatch):
    """The atom counts of every call of algebra._slices_of_family, the
    N·k² product that reads a family's slices, from either module that
    calls it."""
    calls = []
    product_of = algebra_module._slices_of_family

    def counted(members, k):
        calls.append(k)
        return product_of(members, k)

    for module in (algebra_module, frames_module):
        monkeypatch.setattr(module, "_slices_of_family", counted)
    return calls


def over_table(embedding):
    """The embedding with its source replaced by the table-built covering
    of the same table, which holds no family."""
    source = CoveringRelation(embedding.source.algebra, embedding.source.table)
    return Embedding(source, embedding.frame, embedding.image_masks, embedding.worlds)


class TestFamilyGate:
    """For a source built from a family, a σ family equal to its member set
    confirms the frame's covering without either side's atom slices; any
    other case reads the slices or tabulates.  Every report equals the
    report over the table-built covering of the same table, which holds no
    family."""

    def seeded_embeddings(self):
        spaces = [random_space(seed, 6) for seed in range(20)] + [multi_atom_space(seed) for seed in range(8)]
        return equivalence_embeddings() + [from_space(b, a) for a in spaces for b in (build_type1, build_type2)]

    def test_family_path_on_the_sweeps(self, monkeypatch):
        products = counted_family_products(monkeypatch)
        for embedding in self.seeded_embeddings():
            assert embedding.source._members is not None and embedding.source._strength == "ECA"
            products.clear()
            report, verdict = verified_with_slice_verdict(embedding)
            assert verdict is True and products == []
            expected = verify_embedding(over_table(embedding))
            assert report == expected and report.all_passed

    def family_and_points(self, family, points):
        # one source per builder, so each generates its own slices
        return {builder: builder(covering_from_signatures(3, family), points) for builder in (build_type1, build_type2)}

    def test_same_closure_goes_through_slices_and_passes(self, monkeypatch):
        # S holds every single atom and every pair of atoms, so {0, 1, 2}
        # is in cl(S) but not in S: the sets differ, the coverings do not.
        # The frame's slices are one product, the source's the other: a
        # family's covering generates its slices only when they are read
        points = [1, 2, 4, 3, 5, 6]
        assert 7 in oracles.naive_signature_closure(3, points)
        products = counted_family_products(monkeypatch)
        for builder, embedding in self.family_and_points([*points, 7], points).items():
            atoms = [embedding.image_masks[1 << i] for i in range(3)]
            assert frames_module.covering_family(embedding.frame, atoms) != embedding.source._members
            products.clear()
            report, verdict = verified_with_slice_verdict(embedding)
            assert verdict is True and products == [3, 3], builder
            assert report == verify_embedding(over_table(embedding)) and report.all_passed

    def test_different_closure_fails_with_the_tabulated_witness(self, monkeypatch):
        # {0, 2} lies in no member inside {0, 1, 2} but {0, 1, 2} itself
        points = [1, 2, 4, 3, 6]
        assert 7 not in oracles.naive_signature_closure(3, points)
        for builder, embedding in self.family_and_points([*points, 7], points).items():
            report, verdict = verified_with_slice_verdict(embedding)
            assert verdict is False, builder
            witness = covering_witness(report)
            assert witness is not None and witness == literal_covering_witness(embedding)
            assert report == verify_embedding(over_table(embedding))

    def test_passing_random_trial_runs_no_family_product(self, monkeypatch, capsys):
        # eca_from_rc holds the points' signatures, the checkers and the
        # derived contact read them alone, and both frames pass on the
        # family gate
        from mereotop import cli

        products = counted_family_products(monkeypatch)
        for seed in range(6):
            products.clear()
            assert cli.main(["random", "--seed", str(seed), "--trials", "1"]) == 0
            assert len(products) == 0
        capsys.readouterr()

    def test_passing_reports_are_shared_and_build_no_check(self, monkeypatch):
        built = []
        init = CheckResult.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CheckResult, "__init__", counted_init)
        reports = set()
        for embedding in equivalence_embeddings():
            reports.add(id(verify_embedding(embedding)))
            reports.add(id(verify_embedding(build_parametrized_frame(embedding.source))))
        assert built == [] and len(reports) == 2


# ---------------------------------------------------------------------------
# split pullbacks


class TestSplitPullback:
    def test_every_admissible_split_pulls_back(self):
        for seed in range(10):
            algebra = random_space(seed, max_n=4)
            embedding = from_space(build_type2, algebra)
            n = embedding.source.algebra.size
            for a in range(n):
                if embedding.image_masks[a].bit_count() > 10:
                    continue
                for split1, split2 in find_admissible_splits(embedding, a):
                    result = check_split_pullback(algebra, embedding, a, split1, split2)
                    assert result.all_passed, (seed, a, split1, split2, result)
                    assert result.a1 | result.a2 == a

    def test_disconnected_region_has_admissible_split(self):
        # two isolated points: the unit's image splits along the two atoms
        algebra = rc_algebra(build(2, [0b01, 0b10]))
        embedding = from_space(build_type2, algebra)
        splits = find_admissible_splits(embedding, 0b11)
        assert splits
        result = check_split_pullback(algebra, embedding, 0b11, *splits[0])
        assert result.all_passed
        assert {result.a1, result.a2} == {0b01, 0b10}

    def test_invalid_splits_rejected(self):
        algebra = rc_algebra(build(2, [0b01, 0b10]))
        embedding = from_space(build_type2, algebra)
        image = embedding.image_masks[0b11]
        with pytest.raises(ValueError):
            check_split_pullback(algebra, embedding, 0b11, 0, image)
        with pytest.raises(ValueError):
            check_split_pullback(algebra, embedding, 0b11, 1, 1)
        with pytest.raises(TypeError):
            check_split_pullback(algebra, from_space(build_type1, algebra), 0b11, 1, image & ~1)

    def test_connected_unit_has_no_admissible_split(self):
        # a two-point space glued by topology: only one atom, no splits
        embedding = from_space(build_type2, rc_algebra(build(2, [])))
        assert find_admissible_splits(embedding, 1) == []


# ---------------------------------------------------------------------------
# report documents


class TestVerificationDocument:
    def test_document_structure_with_labels(self):
        doc_in = {
            "universe": ["1", "2", "3", "4", "5", "6", "7"],
            "subbasis": [["1", "2", "3"], ["2", "5", "7"], ["3", "6", "7"]],
        }
        labeled = labeled_topology_from_document(doc_in)
        algebra = rc_algebra(labeled.topology)
        embedding = from_space(build_type2, algebra)
        doc = verification_document(verify_embedding(embedding), embedding, labeled=labeled)
        assert doc["pipeline"] == "type2"
        assert doc["mode"] == "exhaustive"
        assert [c["name"] for c in doc["checks"]] == [
            "injective",
            "preserves-zero",
            "preserves-complement",
            "preserves-join",
            "preserves-covering",
            "preserves-internal-connectedness",
        ]
        assert all(c["pass"] for c in doc["checks"])
        frame = doc["frame"]
        assert frame["kind"] == "type2"
        assert frame["worlds"] == WORLD_COUNT
        assert len(frame["classes"]) == WORLD_COUNT
        assert len(frame["classes2"]) == WORLD_COUNT
        assert len(frame["worlds_detail"]) == WORLD_COUNT
        assert frame["atom_labels"] == [labeled.labels_of(atom) for atom in algebra.atoms]
        for detail in frame["worlds_detail"]:
            assert set(detail) == {"atom_index", "point"}
            assert isinstance(detail["point"], str)
            assert detail["point"] in frame["atom_labels"][detail["atom_index"]]
        emb_doc = doc["embedding"]
        assert set(emb_doc) == {str(m) for m in range(len(embedding.image_masks))}
        region_mask = algebra.element_sets.index(PointSet(7, X_REGION_MASK))
        listed = emb_doc[str(region_mask)]
        assert listed == sorted(
            w for w in range(WORLD_COUNT)
            if embedding.image_masks[region_mask] >> w & 1
        )

    def test_document_without_labels_uses_indices(self):
        embedding = from_space(build_type1, rc_algebra(build(2, [0b01])))
        doc = verification_document(verify_embedding(embedding), embedding)
        for detail in doc["frame"]["worlds_detail"]:
            assert set(detail) == {"atom_index", "point"}
            assert isinstance(detail["point"], int)
        assert "classes2" not in doc["frame"] and "atom_labels" not in doc["frame"]
