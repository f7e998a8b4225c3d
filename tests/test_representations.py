"""The three relational representation pipelines: canonical filter frames,
both equivalence-frame constructions, embedding verification, internal
connectedness preservation, and split pullbacks."""

from __future__ import annotations

import random

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
    verify_c_preservation,
    verify_embedding,
)
from mereotop import algebra as algebra_module
from mereotop import frames as frames_module
from mereotop import representations as representations_module
from mereotop import topology as topology_module
from mereotop.algebra import (
    CoveringRelation,
    FiniteBooleanAlgebra,
    check_eca,
    check_weca,
    covering_from_signatures,
    internally_connected_algebraic,
)
from mereotop.frames import atom_family, covering_table
from mereotop.topology import labeled_topology_from_document
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


def random_teca(seed: int, max_n: int = 4):
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
    return eca_from_rc(rc_algebra(build(n, masks)))


# ---------------------------------------------------------------------------
# the canonical filter frame


class TestParametrizedPipeline:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_relation_matches_closed_form_oracle(self, k):
        assert_relation_matches_closed_form(discrete_covering(k))

    @pytest.mark.parametrize("seed", range(8))
    def test_relation_matches_closed_form_on_topological_sources(self, seed):
        assert_relation_matches_closed_form(random_teca(seed, max_n=4).covering)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_relation_matches_closed_form_on_slice_generated_weak_tables(self, k, seed):
        covering = slice_generated_covering(k, 0, random.Random(f"{k}:{seed}"))
        assert check_weca(covering).all_passed and not check_eca(covering).all_passed
        assert_relation_matches_closed_form(covering)

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
        report = verify_embedding(embedding, pipeline="parametrized")
        assert report.all_passed

    @pytest.mark.parametrize("seed", range(8))
    def test_verifies_on_weak_algebras_from_frames(self, seed):
        # powerset algebras of parametrized frames are weak algebras that
        # need not satisfy the full axioms
        covering = powerset_covering(intersection_frame(random.Random(seed)))
        assert check_weca(covering).all_passed
        embedding = build_parametrized_frame(covering)
        report = verify_embedding(embedding, pipeline="parametrized")
        assert report.all_passed


# ---------------------------------------------------------------------------
# equivalence-frame pipelines


class TestEquivalencePipelines:
    def test_example_world_count_and_classes(self):
        teca = eca_from_rc(rc_algebra(example_topology()))
        emb1 = build_type1(teca)
        emb2 = build_type2(teca)
        assert emb1.frame.world_count == WORLD_COUNT
        assert emb2.frame.world_count == WORLD_COUNT
        assert isinstance(emb1.frame, EquivalenceFrame1)
        assert isinstance(emb2.frame, EquivalenceFrame2)
        assert emb1.worlds == emb2.worlds
        assert emb1.image_masks == emb2.image_masks
        # the source builds its worlds and image map once for both frames
        assert emb1.worlds is emb2.worlds and emb1.image_masks is emb2.image_masks
        # worlds are (atom, point) couples with the point inside the atom
        for wap in emb1.worlds:
            assert wap.point in teca.source.atoms[wap.atom_index]
        couples = [(w.atom_index, w.point) for w in emb1.worlds]
        assert couples == sorted(couples)

    def test_example_verifies(self):
        teca = eca_from_rc(rc_algebra(example_topology()))
        for pipeline, builder in (("type1", build_type1), ("type2", build_type2)):
            embedding = builder(teca)
            report = verify_embedding(embedding, pipeline=pipeline)
            assert report.all_passed, report
        check = verify_c_preservation(build_type2(teca))
        assert check.passed

    @pytest.mark.parametrize("seed", [None, *range(10)], ids=["example", *map(str, range(10))])
    def test_image_is_subset_collection(self, seed):
        teca = eca_from_rc(rc_algebra(example_topology())) if seed is None else random_teca(seed)
        embedding = build_type1(teca)
        n = teca.covering.algebra.size
        for a in range(n):
            target = teca.element_sets[a]
            expected = 0
            for w, wap in enumerate(embedding.worlds):
                if teca.source.atoms[wap.atom_index].issubset(target):
                    expected |= 1 << w
            assert embedding.image_masks[a] == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_random_spaces_verify(self, seed):
        teca = random_teca(seed, max_n=4)
        emb1 = build_type1(teca)
        emb2 = build_type2(teca)
        assert verify_embedding(emb1, pipeline="type1").all_passed
        report2 = verify_embedding(emb2, pipeline="type2").extended(
            verify_c_preservation(emb2)
        )
        assert report2.all_passed
        assert emb1.image_masks == emb2.image_masks

    def test_degenerate_single_point(self):
        teca = eca_from_rc(rc_algebra(build(1, [])))
        emb = build_type2(teca)
        assert emb.frame.world_count == 1
        assert verify_embedding(emb, pipeline="type2").all_passed
        assert verify_c_preservation(emb).passed


# ---------------------------------------------------------------------------
# verification internals


class TestVerifyEmbedding:
    def test_injectivity_witness_is_lexicographically_first(self):
        teca = eca_from_rc(rc_algebra(build(2, [0b01])))
        real = build_type1(teca)
        n = teca.covering.algebra.size
        broken = Embedding(
            source=teca.covering,
            frame=real.frame,
            image_masks=tuple(0 for _ in range(n)),
            worlds=real.worlds,
        )
        report = verify_embedding(broken, pipeline="type1")
        by_name = {c.name: c for c in report.checks}
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
    (check,) = [c for c in report.checks if c.name == "preserves-covering"]
    assert check.passed == (check.witness is None)
    return check.witness


def assert_slice_verdict_matches_tables(embedding):
    """Where the atom slices decide covering, they decide it as comparing
    the source's table with the frame's covering tabulated over the
    images does.  Returns the slice verdict (None: not decided)."""
    verdict = embedding._covering_by_slices
    if verdict is not None:
        frame_table = covering_table(embedding.frame, embedding.image_masks)
        assert verdict == (frame_table == embedding.source.table).all()
    return verdict


def verified_against_literal_covering(embedding, kind):
    """verify_embedding's report, after checking its covering witness
    against the literal scan and the slice verdict against the tables."""
    assert_slice_verdict_matches_tables(embedding)
    report = verify_embedding(embedding, pipeline=kind)
    assert covering_witness(report) == literal_covering_witness(embedding)
    return report


BUILDERS = {
    "type1": build_type1,
    "type2": build_type2,
    "parametrized": lambda teca: build_parametrized_frame(teca.covering),
}


def multi_atom_teca(seed):
    """A random topological algebra with 3 or 4 atoms."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, 6)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(2, 5))]
        teca = eca_from_rc(rc_algebra(build(n, masks)))
        if 3 <= teca.covering.algebra.atom_count <= 4:
            return teca


class TestCoveringWitnessMatchesOracles:
    """The tabulated covering check reports the same lex-first witness as a
    literal scan with the oracle evaluators, on corrupted embeddings."""

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_flipped_source(self, kind, seed):
        rng = random.Random(seed)
        embedding = BUILDERS[kind](multi_atom_teca(seed))
        broken = with_flipped_source(embedding, rng, rng.randint(1, 6))
        assert literal_covering_witness(broken) is not None
        verified_against_literal_covering(broken, kind)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_swapped_images(self, kind, seed):
        rng = random.Random(seed)
        broken = with_swapped_images(BUILDERS[kind](multi_atom_teca(seed)), rng)
        verified_against_literal_covering(broken, kind)

    @pytest.mark.parametrize("seed", range(4))
    def test_asymmetric_parametrized_frame(self, seed):
        # the identity embedding of a non-symmetric antitone frame into its
        # own powerset algebra
        rng = random.Random(seed)
        frame = intersection_frame(rng)
        source = powerset_covering(frame)
        embedding = Embedding(source, frame, tuple(range(8)))
        assert verify_embedding(embedding, pipeline="parametrized").all_passed
        for broken in (
            with_flipped_source(embedding, rng, rng.randint(1, 6)),
            with_swapped_images(embedding, rng),
        ):
            report = verify_embedding(broken, pipeline="parametrized")
            assert covering_witness(report) == literal_covering_witness(broken)

    def test_type2_wider_than_64_worlds(self):
        # two open blocks of 29 points and 6 points in the closure of both:
        # two atoms of 35 points each, so 70 worlds
        n = 64
        teca = eca_from_rc(rc_algebra(build(n, [(1 << 29) - 1, ((1 << 29) - 1) << 29])))
        embedding = build_type2(teca)
        assert embedding.frame.world_count == 70
        assert verify_embedding(embedding, pipeline="type2").all_passed
        broken = with_flipped_source(embedding, random.Random(3), 1)
        assert literal_covering_witness(broken) is not None
        verified_against_literal_covering(broken, "type2")


HOMOMORPHISM_CHECKS = ("injective", "preserves-zero", "preserves-complement", "preserves-join")


def with_images(embedding, img):
    return Embedding(embedding.source, embedding.frame, tuple(img), embedding.worlds)


def from_atom_images(embedding, atoms):
    """The embedding with the image of x replaced by the union of the given
    atom images over the bits of x."""
    img = [0]
    for atom in atoms:
        img += [m | atom for m in img]
    return with_images(embedding, img)


def assert_matches_literal_loops(embedding, kind):
    """Every witness of the report equals the literal loop's: the
    homomorphism facts from tests/oracles.py, covering from the oracle
    frame evaluators; and the slice verdict agrees with the tables."""
    report = verified_against_literal_covering(embedding, kind)
    got = {c.name: c.witness for c in report.checks}
    expected = oracles.naive_homomorphism_witnesses(
        embedding.image_masks, embedding.frame.world_count
    )
    assert {name: got[name] for name in HOMOMORPHISM_CHECKS} == expected
    assert all(c.passed == (c.witness is None) for c in report.checks)
    return got


EQUIVALENCE_BUILDERS = {"type1": build_type1, "type2": build_type2}


class TestHomomorphismVerdicts:
    """The closed-form verdicts report the witnesses of the literal loops."""

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_all_images_zero(self, kind, seed):
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_teca(seed))
        got = assert_matches_literal_loops(with_images(embedding, [0] * len(embedding.image_masks)), kind)
        assert got["injective"] == (0, 1)
        assert got["preserves-zero"] is None and got["preserves-join"] is None

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_nonzero_image_of_zero_keeps_join(self, kind, seed):
        # one world added to every image: join still holds, zero does not
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_teca(seed))
        world = 1 << random.Random(seed).randrange(embedding.frame.world_count)
        broken = with_images(embedding, [m | world for m in embedding.image_masks])
        got = assert_matches_literal_loops(broken, kind)
        assert got["preserves-zero"] == (0,)
        assert got["preserves-join"] is None

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_two_images_swapped(self, kind, seed):
        broken = with_swapped_images(EQUIVALENCE_BUILDERS[kind](multi_atom_teca(seed)), random.Random(seed))
        got = assert_matches_literal_loops(broken, kind)
        assert got["injective"] is None and got["preserves-join"] is not None

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_world_dropped_from_an_atom(self, kind, seed):
        rng = random.Random(seed)
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_teca(seed))
        k = embedding.source.algebra.atom_count
        atoms = [embedding.image_masks[1 << i] for i in range(k)]
        i = rng.randrange(k)
        atoms[i] &= ~(1 << rng.choice([w for w in range(embedding.frame.world_count) if atoms[i] >> w & 1]))
        got = assert_matches_literal_loops(from_atom_images(embedding, atoms), kind)
        assert got["preserves-complement"] == (0,)
        assert got["preserves-zero"] is None and got["preserves-join"] is None

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_complement_broken_alone(self, kind, seed):
        # one atom's image also takes one world of another atom, which keeps
        # a second world, so the images stay distinct
        rng = random.Random(seed)
        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_teca(seed))
        k = embedding.source.algebra.atom_count
        atoms = [embedding.image_masks[1 << i] for i in range(k)]
        j = rng.choice([j for j in range(k) if atoms[j].bit_count() >= 2])
        i = rng.choice([i for i in range(k) if i != j])
        atoms[i] |= atoms[j] & -atoms[j]
        got = assert_matches_literal_loops(from_atom_images(embedding, atoms), kind)
        assert [name for name in HOMOMORPHISM_CHECKS if got[name] is not None] == ["preserves-complement"]

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_list_of_images_takes_the_closed_form(self, kind, seed):
        class CountingList(list):
            reads = 0

            def __getitem__(self, i):
                CountingList.reads += 1
                return super().__getitem__(i)

        embedding = EQUIVALENCE_BUILDERS[kind](multi_atom_teca(seed))
        n = len(embedding.image_masks)
        images = CountingList(embedding.image_masks)
        as_list = Embedding(embedding.source, embedding.frame, images, embedding.worlds)
        report = verify_embedding(as_list, pipeline=kind)
        assert report == verify_embedding(embedding, pipeline=kind) and report.all_passed
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
            img = [0]
            for _ in range(k):
                atom = rng.getrandbits(worlds)
                img += [m | atom for m in img]
        else:
            img = [rng.getrandbits(worlds) for _ in range(n)]
        assert_matches_literal_loops(Embedding(source, frame, tuple(img)), kind)


def equivalence_embeddings():
    """Every type-1 and type-2 embedding of the sweeps in this file."""
    tecas = [eca_from_rc(rc_algebra(example_topology()))]
    tecas += [random_teca(seed) for seed in range(10)]
    tecas += [multi_atom_teca(seed) for seed in range(4)]
    tecas.append(eca_from_rc(rc_algebra(build(64, [(1 << 29) - 1, ((1 << 29) - 1) << 29]))))
    return [builder(teca) for teca in tecas for builder in (build_type1, build_type2)]


def family_table(frame, atoms):
    """The covering of the atom family of the given atom images, tabulated."""
    worlds, classes = atom_family(frame, atoms)
    return covering_from_signatures(len(atoms), worlds + classes).table


def drawn_frame(rng, worlds, type2):
    classes = [tuple(rng.randrange(worlds) for _ in range(worlds)) for _ in range(2)]
    return EquivalenceFrame2(worlds, *classes) if type2 else EquivalenceFrame1(worlds, classes[0])


class TestAtomFamily:
    """The covering of the atom images' family equals the frame's covering
    tabulated over the images themselves, and its atom slices decide the
    covering check as the tables do."""

    def test_matches_covering_table_on_the_sweeps(self):
        embeddings = equivalence_embeddings()
        assert max(e.frame.world_count for e in embeddings) == 70
        for embedding in embeddings:
            img = embedding.image_masks
            atoms = [img[1 << i] for i in range(embedding.source.algebra.atom_count)]
            table = family_table(embedding.frame, atoms)
            assert (table == covering_table(embedding.frame, img)).all()
            assert (table == embedding.source.table).all()
            assert assert_slice_verdict_matches_tables(embedding) is True

    @given(st.integers(1, 3), st.integers(1, 6), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_covering_table_on_overlapping_images(self, k, worlds, type2, rng):
        frame = drawn_frame(rng, worlds, type2)
        atoms = [rng.getrandbits(worlds) for _ in range(k)]
        img = [0]
        for atom in atoms:
            img += [m | atom for m in img]
        assert (family_table(frame, atoms) == covering_table(frame, img)).all()

    def test_rejects_masks_outside_the_worlds(self):
        with pytest.raises(ValueError):
            atom_family(EquivalenceFrame1(2, (0, 1)), [1, 4])

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
            verdicts[assert_slice_verdict_matches_tables(embedding)] += 1
        assert min(verdicts.values()) >= 40, verdicts


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


def frame_embedding(frame, atoms):
    """The embedding of the frame's own covering over the joins of the
    given atom images, so covering is preserved."""
    img = [0]
    for atom in atoms:
        img += [m | atom for m in img]
    covering = CoveringRelation(FiniteBooleanAlgebra(len(atoms)), covering_table(frame, img))
    return Embedding(covering, frame, tuple(img))


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
            if representations_module._c_preserved_on_atoms(embedding):
                hits += 1
                algebraic = internally_connected_algebraic(embedding.source)
                for a, m in enumerate(embedding.image_masks):
                    assert algebraic[a] == oracles.naive_frame2_internally_connected(classes1, classes2, m)
            check = verify_c_preservation(embedding)
            assert check.witness == c_witness_from_oracles(embedding)
        assert hits >= 200, hits

    @staticmethod
    def fallback_witness(embedding, monkeypatch):
        calls = []
        algebraic = representations_module.internally_connected_algebraic

        def counted(covering):
            calls.append(covering)
            return algebraic(covering)

        monkeypatch.setattr(representations_module, "internally_connected_algebraic", counted)
        assert not representations_module._c_preserved_on_atoms(embedding)
        # covering holds on atom slices in each frame but the one without a
        # verdict, so the fallback comes from the condition that is broken
        assert embedding._covering_by_slices is not False
        check = verify_c_preservation(embedding)
        assert len(calls) == 1  # the element-by-element comparison ran
        assert check.passed == (check.witness is None)
        return check.witness

    def test_multi_world_atom_without_its_class(self, monkeypatch):
        # atom 0 has worlds 0 and 1, and the one composite class is every
        # world: atom 0 is connected algebraically but split in the frame
        embedding = frame_embedding(EquivalenceFrame2(3, (0, 0, 1), (0, 0, 0)), [0b011, 0b100])
        assert verify_embedding(embedding, pipeline="type2").all_passed
        assert self.fallback_witness(embedding, monkeypatch) == c_witness_from_oracles(embedding) == (1,)

    def test_class_not_a_union_of_atom_images(self, monkeypatch):
        # the composite class {2} is half of atom 1's image, which no class
        # glues: split in the frame, connected algebraically
        embedding = frame_embedding(EquivalenceFrame2(3, (0, 0, 1), (0, 0, 1)), [0b001, 0b110])
        assert embedding.frame.distinct_composite_masks == (0b011, 0b100)
        assert self.fallback_witness(embedding, monkeypatch) == c_witness_from_oracles(embedding) == (2,)

    def test_overlapping_atom_images(self, monkeypatch):
        # atoms 0 and 1 share their one world: atom 0 is connected in the
        # frame but covered by its complement, which holds that world
        embedding = frame_embedding(EquivalenceFrame2(2, (0, 1), (0, 1)), [0b10, 0b10, 0b01])
        assert self.fallback_witness(embedding, monkeypatch) == c_witness_from_oracles(embedding) == (1,)

    @pytest.mark.parametrize("seed", range(4))
    def test_source_without_a_verdict(self, seed, monkeypatch):
        # a built embedding whose source table, with one atom covered by
        # its complement, is no covering of a family
        embedding = build_type2(multi_atom_teca(seed))
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
        assert broken.source._strength is None and broken._covering_by_slices is None
        witness = self.fallback_witness(broken, monkeypatch)
        assert witness == c_witness_from_oracles(broken) and witness is not None

    def test_passing_random_trial_builds_no_frame_table_and_glues_nothing(self, monkeypatch, capsys):
        # the covering is generated twice per trial (the build and the
        # verdict), and neither frame's table nor any gluing is computed
        from mereotop.cli import main

        generations, gluings = [], []
        generate, glue = representations_module._covering_of_slices, topology_module.glued_components

        def counted_generate(slices, k):
            generations.append(k)
            return generate(slices, k)

        def counted_glue(mask, blocks):
            gluings.append(mask)
            return glue(mask, blocks)

        for module in (algebra_module, representations_module):
            monkeypatch.setattr(module, "_covering_of_slices", counted_generate)
        for module in (topology_module, frames_module):
            monkeypatch.setattr(module, "glued_components", counted_glue)
        for seed in (3, 7):
            generations.clear()
            assert main(["random", "--seed", str(seed), "--trials", "1", "--json"]) == 0
            assert len(generations) == 2 and gluings == []
        capsys.readouterr()


class TestCPreservationWitness:
    """verify_c_preservation reports the first element whose algebraic and
    frame-side verdicts differ, as a literal loop over the oracles does."""

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
        embedding = build_type2(multi_atom_teca(seed))
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
        check = verify_c_preservation(broken)
        assert check.witness == self.literal_witness(broken)
        assert check.passed == (check.witness is None)

    @pytest.mark.parametrize("seed", range(4))
    def test_split_atoms(self, seed):
        # an atom covered by its own complement is split algebraically but
        # not in the frame; two such atoms give two mismatches
        embedding = build_type2(multi_atom_teca(seed))
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
        assert verify_c_preservation(broken).witness == expected


# ---------------------------------------------------------------------------
# split pullbacks


class TestSplitPullback:
    def test_every_admissible_split_pulls_back(self):
        for seed in range(10):
            teca = random_teca(seed, max_n=4)
            embedding = build_type2(teca)
            n = teca.covering.algebra.size
            for a in range(n):
                if embedding.image_masks[a].bit_count() > 10:
                    continue
                for split1, split2 in find_admissible_splits(embedding, a):
                    result = check_split_pullback(teca, embedding, a, split1, split2)
                    assert result.all_passed, (seed, a, split1, split2, result)
                    assert result.a1 | result.a2 == a

    def test_disconnected_region_has_admissible_split(self):
        # two isolated points: the unit's image splits along the two atoms
        teca = eca_from_rc(rc_algebra(build(2, [0b01, 0b10])))
        embedding = build_type2(teca)
        splits = find_admissible_splits(embedding, 0b11)
        assert splits
        result = check_split_pullback(teca, embedding, 0b11, *splits[0])
        assert result.all_passed
        assert {result.a1, result.a2} == {0b01, 0b10}

    def test_invalid_splits_rejected(self):
        teca = eca_from_rc(rc_algebra(build(2, [0b01, 0b10])))
        embedding = build_type2(teca)
        image = embedding.image_masks[0b11]
        with pytest.raises(ValueError):
            check_split_pullback(teca, embedding, 0b11, 0, image)
        with pytest.raises(ValueError):
            check_split_pullback(teca, embedding, 0b11, 1, 1)
        with pytest.raises(TypeError):
            check_split_pullback(teca, build_type1(teca), 0b11, 1, image & ~1)

    def test_connected_unit_has_no_admissible_split(self):
        # a two-point space glued by topology: only one atom, no splits
        teca = eca_from_rc(rc_algebra(build(2, [])))
        embedding = build_type2(teca)
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
        teca = eca_from_rc(rc_algebra(labeled.topology))
        embedding = build_type2(teca)
        report = verify_embedding(embedding, pipeline="type2").extended(
            verify_c_preservation(embedding)
        )
        doc = verification_document(report, embedding, labeled=labeled, teca=teca)
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
        for detail in frame["worlds_detail"]:
            assert set(detail) == {"atom", "point"}
            assert isinstance(detail["point"], str)
        emb_doc = doc["embedding"]
        assert set(emb_doc) == {str(m) for m in range(len(embedding.image_masks))}
        region_mask = teca.element_sets.index(PointSet(7, X_REGION_MASK))
        listed = emb_doc[str(region_mask)]
        assert listed == sorted(
            w for w in range(WORLD_COUNT)
            if embedding.image_masks[region_mask] >> w & 1
        )

    def test_document_without_labels_uses_indices(self):
        teca = eca_from_rc(rc_algebra(build(2, [0b01])))
        embedding = build_type1(teca)
        report = verify_embedding(embedding, pipeline="type1")
        doc = verification_document(report, embedding)
        for detail in doc["frame"]["worlds_detail"]:
            assert set(detail) == {"atom_index", "point"}
            assert isinstance(detail["point"], int)
        assert "classes2" not in doc["frame"]
