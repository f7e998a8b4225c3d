"""Acceptance battery: one test (one pass/fail line) per shipping criterion,
each asserting its correctness sweep and its stated runtime bound."""

from __future__ import annotations

import json
import random
import time

import pytest

import oracles
from example_data import (
    X_DOC,
    X_REGION_MASK,
    X_SUBBASIS_MASKS,
    XP_DOC,
    XP_REGION_MASK,
    XP_SUBBASIS_MASKS,
    build,
    example_topology,
    example_topology_prime,
)
from mereotop import (
    Filter,
    PointSet,
    build_parametrized_frame,
    build_type1,
    build_type2,
    check_ca,
    check_eca,
    check_relative_contact_laws,
    check_weca_consequences,
    derived_contact,
    discrete_covering,
    eca_from_rc,
    generate_topology,
    internally_connected_algebraic,
    labeled_topology_from_document,
    rc_algebra,
    rc_contact,
    rc_internally_connected,
    verify_embedding,
)
from mereotop.frames import covering_table
from mereotop.cli import DEFAULT_CAP_ELEMENTS, TRIAL_SEED_STRIDE, _sample_subbasis, main
from paper_claims import (
    check_filter_separation_equivalence,
    check_split_pullback,
    find_admissible_splits,
    left_set,
    right_set,
)


def seeded_topology(trial: int, max_universe: int = 5):
    """The campaign sampler with campaign seed 0 (frozen RNG call order)."""
    rng = random.Random(0 * TRIAL_SEED_STRIDE + trial)
    n = rng.randint(1, max_universe)
    return build(n, _sample_subbasis(rng, n, DEFAULT_CAP_ELEMENTS))


def all_small_spaces():
    """Every topology on one, two, or three points."""
    spaces = []
    for n in (1, 2, 3):
        for fam in oracles.all_topologies(n):
            spaces.append(generate_topology(n, [PointSet(n, m) for m in fam]))
    return spaces


def test_criterion_1_example_isomorphism_and_connectedness_gap():
    started = time.perf_counter()
    space = labeled_topology_from_document(X_DOC)
    space_p = labeled_topology_from_document(XP_DOC)
    alg = rc_algebra(space.topology)
    alg_p = rc_algebra(space_p.topology)
    image = {
        a: space_p.set_from_labels([lab for lab in space.labels_of(a) if lab != "1"])
        for a in alg.carrier
    }
    assert sorted(ps.bits for ps in image.values()) == [c.bits for c in alg_p.carrier]
    assert image[alg.zero].is_empty
    for a in alg.carrier:
        assert image[alg.star(a)] == alg_p.star(image[a])
        for b in alg.carrier:
            assert image[alg.join(a, b)] == image[a] | image[b]
            assert rc_contact(alg, a, b) == rc_contact(alg_p, image[a], image[b])
    assert rc_internally_connected(alg, PointSet(7, X_REGION_MASK))
    assert not rc_internally_connected(alg_p, PointSet(6, XP_REGION_MASK))
    assert time.perf_counter() - started < 1.0


def test_criterion_2_axiom_systems_on_100_random_spaces():
    started = time.perf_counter()
    for trial in range(100):
        topo = seeded_topology(trial)
        covering = eca_from_rc(rc_algebra(topo))
        assert check_eca(covering).all_passed, trial
        contact = derived_contact(covering)
        assert check_ca(contact).all_passed, trial
        assert check_relative_contact_laws(covering).all_passed, trial
        assert check_weca_consequences(covering).all_passed, trial
    assert time.perf_counter() - started < 60.0


def test_criterion_3_parametrized_representation_of_weak_algebras():
    started = time.perf_counter()
    sources = [discrete_covering(k) for k in (1, 2, 3)]
    sources += [eca_from_rc(topo_alg)
                for topo_alg in map(rc_algebra, all_small_spaces())]
    assert len(sources) > 30
    for eca in sources:
        embedding = build_parametrized_frame(eca)
        report = verify_embedding(embedding)
        assert report.all_passed, report
    assert time.perf_counter() - started < 120.0


def _pipeline_inputs():
    spaces = [seeded_topology(trial) for trial in range(50)]
    spaces.append(example_topology())
    spaces.append(example_topology_prime())
    return spaces


def test_criterion_4_type1_representation():
    started = time.perf_counter()
    for topo in _pipeline_inputs():
        algebra = rc_algebra(topo)
        report = verify_embedding(build_type1(eca_from_rc(algebra), algebra.point_signatures))
        assert report.all_passed, report
    assert time.perf_counter() - started < 120.0


def test_criterion_5_type2_representation_preserves_connectedness():
    started = time.perf_counter()
    for topo in _pipeline_inputs():
        algebra = rc_algebra(topo)
        embedding = build_type2(eca_from_rc(algebra), algebra.point_signatures)
        report = verify_embedding(embedding)
        assert report.all_passed, report
        assert report.results[-1].name == "preserves-internal-connectedness"
    assert time.perf_counter() - started < 180.0


CURATED_LARGE = [
    (8, []),
    (8, [0b10101010, 0b01010101]),
    (8, [1 << i for i in range(8)]),
    (8, [0b00001111, 0b11110000, 0b00111100]),
    (8, [(1 << i) - 1 for i in range(1, 9)]),
    (8, [0b11000011, 0b00111100, 0b10011001]),
    (7, X_SUBBASIS_MASKS),
    (6, XP_SUBBASIS_MASKS),
    (5, [0b00111, 0b11100]),
]


def test_criterion_6a_regular_closed_carriers_match_brute_force():
    for n, masks in CURATED_LARGE:
        topo = build(n, masks)
        opens = [o.bits for o in topo.opens]
        carrier = {c.bits for c in rc_algebra(topo).carrier}
        assert carrier == oracles.brute_force_rc(n, opens), (n, masks)


def test_criterion_6b_antitone_shortcut_equals_naive_on_filter_frames():
    sources = [discrete_covering(k) for k in (1, 2, 3, 4)]
    sources.append(eca_from_rc(rc_algebra(example_topology())))
    sources.append(
        eca_from_rc(rc_algebra(build(4, [1 << i for i in range(4)])))
    )
    for eca in sources:
        frame = build_parametrized_frame(eca).frame
        w = frame.world_count
        assert w <= 4
        for d in range(1 << w):
            assert oracles.naive_pframe_reach(w, frame.relations.__getitem__, d) == frame.relations[d].tolist()
        table = covering_table(frame, range(1 << w))
        for a in range(1 << w):
            for b in range(1 << w):
                for d in range(1 << w):
                    assert table[a, b, d] == oracles.naive_pframe_covering(
                        w, frame.relations.__getitem__, a, b, d
                    ), (a, b, d)


def test_criterion_6c_algebraic_connectedness_matches_topological():
    spaces = [seeded_topology(trial) for trial in range(30)]
    spaces += [example_topology(), example_topology_prime()]
    for topo in spaces:
        algebra = rc_algebra(topo)
        assert len(algebra.element_sets) <= 32
        connected = internally_connected_algebraic(eca_from_rc(algebra))
        for mask, element in enumerate(algebra.element_sets):
            assert connected[mask] == rc_internally_connected(algebra, element), (topo, mask)


def test_criterion_7a_separation_sets_are_ideals_and_three_way_equivalent():
    coverings = [discrete_covering(k) for k in (1, 2, 3)]
    coverings += [
        eca_from_rc(rc_algebra(topo))
        for topo in all_small_spaces()
    ]
    for covering in coverings:
        algebra = covering.algebra
        assert algebra.atom_count <= 3
        filters = [Filter(algebra, m) for m in oracles.all_filters(algebra.size)]
        for u in filters:
            for d in range(algebra.size):
                assert oracles.is_ideal(algebra.size, left_set(covering, u, d))
                assert oracles.is_ideal(algebra.size, right_set(covering, u, d))
        for u in filters:
            for v in filters:
                for d in range(algebra.size):
                    assert check_filter_separation_equivalence(covering, u, v, d).agree


def test_criterion_7b_split_pullbacks_on_small_frames():
    processed = 0
    sources = [build(2, [0b01, 0b10])] + [
        seeded_topology(trial, max_universe=4) for trial in range(30)
    ]
    for topo in sources:
        algebra = rc_algebra(topo)
        embedding = build_type2(eca_from_rc(algebra), algebra.point_signatures)
        if embedding.frame.world_count > 6:
            continue
        processed += 1
        for a in range(embedding.source.algebra.size):
            for split1, split2 in find_admissible_splits(embedding, a):
                result = check_split_pullback(algebra, embedding, a, split1, split2)
                assert result.all_passed, (topo, a, split1, split2)
    assert processed >= 8


def test_criterion_8_random_campaign_reruns_are_byte_identical(capsys):
    argv = ["random", "--seed", "42", "--trials", "6", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["all_passed"] is True and report["total"] == 6
