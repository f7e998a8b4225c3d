"""Point sets, topology generation, interior/closure, and the regular
closed / regular open algebras, cross-checked against the naive oracles."""

from __future__ import annotations

import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from example_data import (
    X_N,
    X_OPEN_COUNT,
    X_RC_ATOM_MASKS,
    X_RC_MASKS,
    X_SUBBASIS_MASKS,
    XP_N,
    XP_OPEN_COUNT,
    XP_RC_ATOM_MASKS,
    XP_RC_MASKS,
    XP_SUBBASIS_MASKS,
    build,
    example_topology,
    example_topology_prime,
    topology_document,
)
from mereotop import (
    DocumentError,
    FiniteTopology,
    PointSet,
    RegularClosedAlgebra,
    closure,
    generate_topology,
    interior,
    labeled_topology_from_document,
    rc_algebra,
    rc_contact,
    rc_internally_connected,
)
from paper_claims import is_regular_open, rc_ro_isomorphism_check, ro_algebra


@st.composite
def space_masks(draw, max_n: int = 6, max_subbasis: int = 5):
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_subbasis))
    return n, masks


# ---------------------------------------------------------------------------
# point sets


class TestPointSet:
    def test_construction_and_queries(self):
        a = PointSet.from_points(5, [0, 3])
        assert a.bits == 0b01001
        assert a.points() == (0, 3)
        assert list(a) == [0, 3]
        assert len(a) == 2
        assert 3 in a and 1 not in a
        assert PointSet.empty(5).is_empty
        assert PointSet.full(5).bits == 31

    def test_set_operations_match_builtin_sets(self):
        a = PointSet.from_points(6, [0, 2, 4])
        b = PointSet.from_points(6, [2, 3])
        assert set((a | b).points()) == {0, 2, 3, 4}
        assert set((a & b).points()) == {2}
        assert set((a - b).points()) == {0, 4}
        assert set((~a).points()) == {1, 3, 5}
        assert a.union(b) == a | b
        assert a.intersection(b) == a & b
        assert a.difference(b) == a - b
        assert a.complement() == ~a
        assert b.issubset(a | b)
        assert not a.isdisjoint(b)
        assert a.isdisjoint(PointSet.from_points(6, [1, 5]))

    def test_cross_universe_rejected(self):
        with pytest.raises(ValueError):
            PointSet(3, 1) | PointSet(4, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PointSet(3, 1 << 3)
        with pytest.raises(ValueError):
            PointSet.from_points(3, [3])

    def test_ordering_is_by_bits(self):
        sets = [PointSet(4, m) for m in (5, 0, 12, 3)]
        assert [p.bits for p in sorted(sets)] == [0, 3, 5, 12]


# ---------------------------------------------------------------------------
# topology generation


class TestGenerateTopology:
    def test_example_open_counts(self):
        assert len(example_topology().opens) == X_OPEN_COUNT
        assert len(example_topology_prime().opens) == XP_OPEN_COUNT

    def test_example_is_closed_family(self):
        topo = example_topology()
        opens = [o.bits for o in topo.opens]
        assert oracles.is_topology_family(X_N, opens)
        assert set(opens) == oracles.least_topology(X_N, X_SUBBASIS_MASKS)

    @given(space_masks())
    @settings(max_examples=150)
    def test_matches_least_topology_oracle(self, case):
        n, masks = case
        topo = build(n, masks)
        opens = {o.bits for o in topo.opens}
        assert oracles.is_topology_family(n, opens)
        assert opens == oracles.least_topology(n, masks)

    def test_membership_queries(self):
        topo = build(3, [0b011])
        assert topo.is_open(PointSet(3, 0b011))
        assert not topo.is_open(PointSet(3, 0b001))
        assert topo.is_closed(PointSet(3, 0b100))

    def test_rejects_wrong_universe_subbasis(self):
        with pytest.raises(ValueError):
            generate_topology(3, [PointSet(4, 1)])

    @given(space_masks())
    @settings(max_examples=100)
    def test_neighbourhoods_and_is_open_match_oracle(self, case):
        n, masks = case
        topo = build(n, masks)
        opens = oracles.least_topology(n, masks)
        for x, u in enumerate(topo.neighbourhoods):
            least = (1 << n) - 1
            for o in opens:
                if o >> x & 1:
                    least &= o
            assert u.bits == least
        for bits in range(1 << n):
            assert topo.is_open(PointSet(n, bits)) == (bits in opens)

    @pytest.mark.parametrize(
        "n, masks, message",
        [
            (3, [0b011, 0b110], "2 neighbourhoods for 3 points"),
            (2, [0b10, 0b10], "point 0 is not in its own neighbourhood"),
            (3, [0b011, 0b110, 0b100], "point 1 is in a neighbourhood without U_1"),
        ],
        ids=["wrong-count", "point-outside", "not-nested"],
    )
    def test_constructor_rejects_non_neighbourhoods(self, n, masks, message):
        with pytest.raises(ValueError, match=message):
            FiniteTopology(n, tuple(PointSet(n, m) for m in masks))


# ---------------------------------------------------------------------------
# counting the open sets


class TestOpenCount:
    def test_matches_listing_all_three_point_spaces(self):
        for fam in oracles.all_topologies(3):
            topo = generate_topology(3, [PointSet(3, m) for m in fam])
            assert topo.open_count == len(topo.opens) == len(fam)

    @given(space_masks())
    @settings(max_examples=150)
    def test_matches_listing(self, case):
        topo = build(*case)
        assert topo.open_count == len(topo.opens)

    def test_long_chain(self):
        # 1 100 nested U_x, deeper than the default recursion limit
        n = 1100
        topo = FiniteTopology(n, tuple(PointSet(n, (2 << x) - 1) for x in range(n)))
        assert topo.open_count == n + 1


# ---------------------------------------------------------------------------
# interior and closure


class TestInteriorClosure:
    @given(space_masks(max_n=6), st.data())
    @settings(max_examples=150)
    def test_against_naive_and_lattice_laws(self, case, data):
        n, masks = case
        topo = build(n, masks)
        opens = [o.bits for o in topo.opens]
        a = PointSet(n, data.draw(st.integers(0, (1 << n) - 1), label="a"))
        inner = interior(topo, a)
        outer = closure(topo, a)
        assert inner.bits == oracles.interior_naive(opens, a.bits)
        assert outer.bits == oracles.closure_naive(n, opens, a.bits)
        assert inner.issubset(a) and a.issubset(outer)
        assert interior(topo, inner) == inner
        assert closure(topo, outer) == outer
        assert closure(topo, a) == ~interior(topo, ~a)
        assert topo.is_open(inner) and topo.is_closed(outer)

    @given(space_masks(max_n=10, max_subbasis=4), st.data())
    @settings(max_examples=60)
    def test_duality_on_larger_universes(self, case, data):
        n, masks = case
        topo = build(n, masks)
        a = PointSet(n, data.draw(st.integers(0, (1 << n) - 1), label="a"))
        assert interior(topo, a) == ~closure(topo, ~a)

    @given(space_masks(max_n=5), st.data())
    @settings(max_examples=100)
    def test_regular_flags_match_definitions(self, case, data):
        n, masks = case
        topo = build(n, masks)
        opens = [o.bits for o in topo.opens]
        a = PointSet(n, data.draw(st.integers(0, (1 << n) - 1), label="a"))
        regular_closed = closure(topo, interior(topo, a)) == a
        assert regular_closed == (a.bits in oracles.brute_force_rc(n, opens))
        assert is_regular_open(topo, a) == (interior(topo, closure(topo, a)) == a)


# ---------------------------------------------------------------------------
# regular closed algebra


class TestRegularClosedAlgebra:
    def test_example_golden_carrier(self):
        algebra = rc_algebra(example_topology())
        assert [c.bits for c in algebra.carrier] == X_RC_MASKS
        assert [a.bits for a in algebra.atoms] == X_RC_ATOM_MASKS
        algebra_p = rc_algebra(example_topology_prime())
        assert [c.bits for c in algebra_p.carrier] == XP_RC_MASKS
        assert [a.bits for a in algebra_p.atoms] == XP_RC_ATOM_MASKS

    @given(space_masks(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_carrier_matches_brute_force(self, case):
        n, masks = case
        topo = build(n, masks)
        opens = [o.bits for o in topo.opens]
        algebra = rc_algebra(topo)
        assert {c.bits for c in algebra.carrier} == oracles.brute_force_rc(n, opens)
        assert len(algebra.carrier) == 1 << len(algebra.atoms)

    def test_derived_carrier_is_a_boolean_algebra_all_four_point_spaces(self):
        # The constructor checks only the atoms; here the derived carrier
        # is checked against the definition, pair by pair.
        for fam in oracles.all_topologies(4):
            algebra = rc_algebra(generate_topology(4, [PointSet(4, m) for m in fam]))
            family = {c.bits for c in algebra.carrier}
            assert algebra.zero.bits == 0 and algebra.one.bits == 0b1111
            for a in algebra.carrier:
                assert algebra.star(a).bits in family
                below = [atom for atom in algebra.atoms if atom.issubset(a)]
                assert reduce(or_, below, algebra.zero) == a
                for b in algebra.carrier:
                    assert algebra.join(a, b).bits in family
                    assert algebra.meet(a, b).bits in family
            minimal = [
                c
                for c in algebra.carrier
                if not c.is_empty
                and not any(not d.is_empty and d != c and d.issubset(c) for d in algebra.carrier)
            ]
            assert minimal == list(algebra.atoms)
            assert [algebra.carrier[i] for i in algebra.atom_indices] == minimal
            assert sorted(algebra.element_sets) == list(algebra.carrier)

    @pytest.mark.parametrize(
        "n, subbasis, atoms, message",
        [
            (X_N, X_SUBBASIS_MASKS, X_RC_ATOM_MASKS[::-1], "distinct and sorted"),
            (X_N, X_SUBBASIS_MASKS, [27, 27, 45, 120], "distinct and sorted"),
            (X_N, X_SUBBASIS_MASKS, [0, 27, 45, 120], "nonempty"),
            (2, [0b01], [0b01, 0b10], "is not regular closed"),
            (2, [0b01, 0b10], [0b01, 0b11], "interiors overlap"),
            (2, [0b01, 0b10], [0b01], "do not cover"),
        ],
        ids=["unsorted", "duplicate", "empty", "not-regular-closed", "overlap", "no-cover"],
    )
    def test_constructor_rejects_bad_atoms(self, n, subbasis, atoms, message):
        topo = build(n, subbasis)
        with pytest.raises(ValueError, match=message):
            RegularClosedAlgebra(topo, tuple(PointSet(n, m) for m in atoms))

    def test_boolean_laws_all_three_point_spaces(self):
        for fam in oracles.all_topologies(3):
            topo = generate_topology(3, [PointSet(3, m) for m in fam])
            assert {o.bits for o in topo.opens} == set(fam)
            algebra = rc_algebra(topo)
            carrier = algebra.carrier
            for a in carrier:
                assert algebra.join(a, algebra.zero) == a
                assert algebra.meet(a, algebra.one) == a
                assert algebra.star(algebra.star(a)) == a
                assert algebra.join(a, algebra.star(a)) == algebra.one
                assert algebra.meet(a, algebra.star(a)) == algebra.zero
                for b in carrier:
                    assert algebra.join(a, b) == algebra.join(b, a)
                    assert algebra.meet(a, b) == algebra.meet(b, a)
                    assert algebra.star(algebra.join(a, b)) == algebra.meet(
                        algebra.star(a), algebra.star(b)
                    )
                    for d in carrier:
                        assert algebra.meet(a, algebra.join(b, d)) == algebra.join(
                            algebra.meet(a, b), algebra.meet(a, d)
                        )

    def test_join_is_plain_union_meet_is_closed_interior(self):
        algebra = rc_algebra(example_topology())
        topo = algebra.topology
        for a in algebra.carrier:
            for b in algebra.carrier:
                assert algebra.join(a, b) == a | b
                assert algebra.meet(a, b) == closure(topo, interior(topo, a & b))
            assert algebra.star(a) == closure(topo, ~a)

    def test_atom_decomposition(self):
        for fam in oracles.all_topologies(3):
            algebra = rc_algebra(generate_topology(3, [PointSet(3, m) for m in fam]))
            for a in algebra.carrier:
                below = [
                    atom for atom in algebra.atoms if algebra.meet(atom, a) == atom
                ]
                rebuilt = algebra.zero
                for atom in below:
                    rebuilt = algebra.join(rebuilt, atom)
                assert rebuilt == a

    def test_membership_enforced_on_relations(self):
        algebra = rc_algebra(example_topology())
        not_member = PointSet(X_N, 0b0000001)
        assert not algebra.contains(not_member)
        with pytest.raises(ValueError):
            rc_contact(algebra, not_member, algebra.one)
        with pytest.raises(ValueError):
            rc_internally_connected(algebra, not_member)


# ---------------------------------------------------------------------------
# contact and internal connectedness


class TestContactCovering:
    def test_contact_is_nonempty_intersection(self):
        for fam in oracles.all_topologies(3):
            algebra = rc_algebra(generate_topology(3, [PointSet(3, m) for m in fam]))
            for a in algebra.carrier:
                for b in algebra.carrier:
                    assert rc_contact(algebra, a, b) == (not (a & b).is_empty)

    @given(space_masks(max_n=4))
    @settings(max_examples=100, deadline=None)
    def test_internal_connectedness_matches_open_connectivity(self, case):
        n, masks = case
        topo = build(n, masks)
        opens = [o.bits for o in topo.opens]
        algebra = rc_algebra(topo)
        for a in algebra.carrier:
            expected = oracles.connected_open_naive(
                opens, oracles.interior_naive(opens, a.bits)
            )
            assert rc_internally_connected(algebra, a) == expected

    def test_empty_region_counts_as_connected(self):
        algebra = rc_algebra(example_topology())
        assert rc_internally_connected(algebra, algebra.zero)


# ---------------------------------------------------------------------------
# regular open mirror


class TestRegularOpenMirror:
    def test_isomorphism_check_example(self):
        check = rc_ro_isomorphism_check(example_topology())
        assert check.ok
        assert check.failures == ()
        ro = ro_algebra(example_topology())
        assert sorted(v.bits for _, v in check.mapping) == [c.bits for c in ro.carrier]
        rc = rc_algebra(example_topology())
        assert sorted(k.bits for k, _ in check.mapping) == [c.bits for c in rc.carrier]

    def test_isomorphism_check_all_three_point_spaces(self):
        for fam in oracles.all_topologies(3):
            topo = generate_topology(3, [PointSet(3, m) for m in fam])
            assert rc_ro_isomorphism_check(topo).ok

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_ro_carrier_is_interiors_of_closed_sets(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
        opens = oracles.least_topology(n, masks)
        literal = {oracles.interior_naive(opens, ((1 << n) - 1) & ~o) for o in opens}
        topo = generate_topology(n, [PointSet(n, m) for m in masks])
        assert [c.bits for c in ro_algebra(topo).carrier] == sorted(literal)

    def test_wide_star_never_lists_its_opens(self, monkeypatch):
        # one core and 26 arms: 2^26 + 1 opens, a 2-element algebra
        def no_opens(topology):
            raise AssertionError("the open family was enumerated")

        monkeypatch.setattr(FiniteTopology, "opens", property(no_opens))
        n = 27
        topo = generate_topology(n, [PointSet(n, 1 | 1 << arm) for arm in range(1, n)])
        check = rc_ro_isomorphism_check(topo)
        assert check.ok and len(check.mapping) == 2

    def test_ro_carrier_is_regular_open(self):
        topo = example_topology()
        ro = ro_algebra(topo)
        for c in ro.carrier:
            assert is_regular_open(topo, c)
        assert len(ro.carrier) == len(rc_algebra(topo).carrier)


# ---------------------------------------------------------------------------
# documents


class TestDocuments:
    def test_roundtrip(self):
        doc = {
            "universe": ["p", "q", "r"],
            "subbasis": [["p"], ["q", "r"]],
        }
        labeled = labeled_topology_from_document(doc)
        assert labeled.labels == ("p", "q", "r")
        assert topology_document(labeled) == {
            "universe": ["p", "q", "r"],
            "subbasis": [["p"], ["q", "r"]],
        }

    def test_label_round_trip_of_sets(self):
        labeled = labeled_topology_from_document(
            {"universe": ["a", "b", "c"], "subbasis": [["c", "a"]]}
        )
        ps = labeled.set_from_labels(["c", "a"])
        assert labeled.labels_of(ps) == ["a", "c"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"universe": [], "subbasis": []},
            {"universe": ["a", "a"], "subbasis": []},
            {"universe": ["a", 1], "subbasis": []},
            {"universe": ["a"], "subbasis": [["b"]]},
            {"universe": ["a"], "subbasis": ["a"]},
            {"universe": ["a"]},
            {"subbasis": []},
            ["not", "a", "dict"],
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(DocumentError):
            labeled_topology_from_document(doc)
