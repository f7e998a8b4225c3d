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
from example_data import WORLD_COUNT, X_REGION_MASK, build, example_topology, slice_generated_covering
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
    powerset_eca,
    rc_algebra,
    verification_document,
    verify_c_preservation,
    verify_embedding,
)
from mereotop.algebra import (
    CoveringRelation,
    ExtendedContactAlgebra,
    check_weca,
    verified_eca,
)
from mereotop.topology import labeled_topology_from_document
from paper_claims import check_split_pullback, find_admissible_splits


def intersection_frame(rng: random.Random, w: int = 3) -> ParametrizedFrame:
    """R(U)(s, t) = every member of U relates s to t in a random base
    relation of its own (antitone, usually not symmetric)."""
    base = np.array([rng.random() < 0.7 for _ in range(w * w * w)]).reshape(w, w, w)
    return ParametrizedFrame(
        np.array([base[[x for x in range(w) if u >> x & 1]].all(axis=0) for u in range(1 << w)])
    )


def assert_relation_matches_closed_form(eca) -> None:
    k = eca.algebra.atom_count
    frame = build_parametrized_frame(eca).frame
    assert frame.world_count == k
    for u in range(1 << k):
        expected = oracles.pframe_relation_closed_form(
            eca.algebra.size, eca.covering.table, k, u
        )
        assert frame.relation(u).tolist() == expected, u


def random_teca(seed: int, max_n: int = 4):
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
    return eca_from_rc(rc_algebra(build(n, masks)), verify=False)


# ---------------------------------------------------------------------------
# the canonical filter frame


class TestParametrizedPipeline:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_relation_matches_closed_form_oracle(self, k):
        assert_relation_matches_closed_form(verified_eca(discrete_covering(k)))

    @pytest.mark.parametrize("seed", range(8))
    def test_relation_matches_closed_form_on_topological_sources(self, seed):
        assert_relation_matches_closed_form(random_teca(seed, max_n=4).eca)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_relation_matches_closed_form_on_slice_generated_weak_tables(self, k, seed):
        covering = slice_generated_covering(k, 0, random.Random(f"{k}:{seed}"))
        assert check_weca(covering).all_passed
        assert_relation_matches_closed_form(ExtendedContactAlgebra(covering, "WECA"))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_certificate_agrees_with_audit(self, k):
        # filter frames are antitone: R*(d) = R(d) for every d
        eca = verified_eca(discrete_covering(k), cap_elements=1 << k)
        frame = build_parametrized_frame(eca).frame
        for d in range(1 << k):
            assert oracles.naive_pframe_reach(k, frame.relation, d) == frame.relation(d).tolist()

    def test_image_is_atom_membership(self):
        # world i is the up-set of atom i, so h(a) is exactly the bit
        # pattern of a
        eca = verified_eca(discrete_covering(3))
        embedding = build_parametrized_frame(eca)
        assert embedding.image_masks == tuple(range(8))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_verifies_on_discrete(self, k):
        eca = verified_eca(discrete_covering(k), cap_elements=1 << k)
        embedding = build_parametrized_frame(eca)
        report = verify_embedding(embedding, pipeline="parametrized")
        assert report.all_passed

    @pytest.mark.parametrize("seed", range(8))
    def test_verifies_on_weak_algebras_from_frames(self, seed):
        # powerset algebras of parametrized frames are verified weak
        # algebras that need not satisfy the full axioms
        weca = powerset_eca(intersection_frame(random.Random(seed)), verify=True).eca
        embedding = build_parametrized_frame(weca)
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
        n = teca.eca.algebra.size
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
        n = teca.eca.algebra.size
        broken = Embedding(
            source=teca.eca,
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
        frame.world_count, frame.relation, a, b, d
    )


def literal_covering_witness(embedding):
    """First (a, b, d) in ascending order where the source covering and the
    oracle's frame covering of the images disagree."""
    holds = oracle_covering(embedding.frame)
    table = embedding.source.covering.table
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
    table = embedding.source.covering.table.copy()
    n = len(table)
    for cell in rng.sample(range(n**3), flips):
        index = (cell // (n * n), cell // n % n, cell % n)
        table[index] = not table[index]
    source = ExtendedContactAlgebra(
        CoveringRelation(embedding.source.algebra, table), embedding.source.strength
    )
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


BUILDERS = {
    "type1": build_type1,
    "type2": build_type2,
    "parametrized": lambda teca: build_parametrized_frame(teca.eca),
}


def multi_atom_teca(seed):
    """A random topological algebra with 3 or 4 atoms."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, 6)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(2, 5))]
        teca = eca_from_rc(rc_algebra(build(n, masks)), verify=False)
        if 3 <= teca.eca.algebra.atom_count <= 4:
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
        expected = literal_covering_witness(broken)
        assert expected is not None
        report = verify_embedding(broken, pipeline=kind)
        assert covering_witness(report) == expected

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @pytest.mark.parametrize("seed", range(4))
    def test_swapped_images(self, kind, seed):
        rng = random.Random(seed)
        broken = with_swapped_images(BUILDERS[kind](multi_atom_teca(seed)), rng)
        report = verify_embedding(broken, pipeline=kind)
        assert covering_witness(report) == literal_covering_witness(broken)

    @pytest.mark.parametrize("seed", range(4))
    def test_asymmetric_parametrized_frame(self, seed):
        # the identity embedding of a non-symmetric antitone frame into its
        # own powerset algebra
        rng = random.Random(seed)
        frame = intersection_frame(rng)
        embedding = Embedding(powerset_eca(frame, verify=False).eca, frame, tuple(range(8)))
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
        expected = literal_covering_witness(broken)
        assert expected is not None
        assert covering_witness(verify_embedding(broken, pipeline="type2")) == expected


# ---------------------------------------------------------------------------
# split pullbacks


class TestSplitPullback:
    def test_every_admissible_split_pulls_back(self):
        for seed in range(10):
            teca = random_teca(seed, max_n=4)
            embedding = build_type2(teca)
            n = teca.eca.algebra.size
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
        region_mask = teca.mask_of(PointSet(7, X_REGION_MASK))
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
