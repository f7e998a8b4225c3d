"""Boolean algebras, covering/contact relations, the axiom checkers
(cross-checked against the naive oracle loops), filters, and the
algebraic internal-connectedness evaluator."""

from __future__ import annotations

import itertools
import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from example_data import (
    X_REGION_MASK,
    build,
    covering_document,
    example_topology,
    slice_generated_covering,
    zero_sided_covering,
)
from mereotop import (
    AxiomViolation,
    CapExceeded,
    ContactRelation,
    CoveringRelation,
    DocumentError,
    Filter,
    FiniteBooleanAlgebra,
    PointSet,
    atom_slices,
    check_ca,
    check_eca,
    check_relative_contact_laws,
    check_weca,
    check_weca_consequences,
    covering_from_document,
    covering_from_json,
    covering_from_signatures,
    covering_from_slices,
    derived_contact,
    discrete_covering,
    eca_from_rc,
    generate_topology,
    internally_connected_algebraic,
    maximal_filters,
    principal_filter,
    rc_algebra,
    rc_internally_connected,
    signatures,
)
from mereotop import algebra as algebra_module
from mereotop.algebra import (
    _PASSED,
    _ca12_mismatch,
    _eca1,
    _eca2,
    _weca3_holds,
)
from paper_claims import check_filter_separation_equivalence, left_set, relative_contact, right_set


def witnesses(report) -> dict[str, tuple | None]:
    """Check name -> witness (None when the check passed)."""
    return {r.name: r.witness for r in report.results}


def tabulated(size: int, predicate, arity: int) -> np.ndarray:
    """The predicate's truth table over every arity-tuple of elements."""
    cells = [bool(predicate(*t)) for t in itertools.product(range(size), repeat=arity)]
    return np.array(cells, dtype=bool).reshape((size,) * arity)


def covering_of(algebra: FiniteBooleanAlgebra, predicate) -> CoveringRelation:
    return CoveringRelation(algebra, tabulated(algebra.size, predicate, 3))


def contact_of(algebra: FiniteBooleanAlgebra, predicate) -> ContactRelation:
    return ContactRelation(algebra, tabulated(algebra.size, predicate, 2))


def random_covering(atom_count: int, rng: random.Random, density: float = 0.5):
    algebra = FiniteBooleanAlgebra(atom_count)
    n = algebra.size
    table = np.array(
        [rng.random() < density for _ in range(n**3)], dtype=bool
    ).reshape(n, n, n)
    return CoveringRelation(algebra, table)


def random_contact(atom_count: int, rng: random.Random, density: float = 0.5):
    algebra = FiniteBooleanAlgebra(atom_count)
    n = algebra.size
    table = np.array(
        [rng.random() < density for _ in range(n**2)], dtype=bool
    ).reshape(n, n)
    return ContactRelation(algebra, table)


# ---------------------------------------------------------------------------
# carriers and relation tables


class TestFiniteBooleanAlgebra:
    def test_basics(self):
        algebra = FiniteBooleanAlgebra(3)
        assert algebra.size == 8
        assert algebra.zero == 0 and algebra.one == 7
        assert algebra.atom_masks == (1, 2, 4)
        assert algebra.le(0b001, 0b011) and not algebra.le(0b011, 0b001)
        assert algebra.join(0b001, 0b010) == 0b011
        assert algebra.meet(0b011, 0b110) == 0b010
        assert algebra.complement(0b011) == 0b100
        assert algebra.contains(7) and not algebra.contains(8)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteBooleanAlgebra(0)


class TestRelationTables:
    def test_true_triples_roundtrip(self):
        algebra = FiniteBooleanAlgebra(2)
        triples = [(0, 0, 0), (1, 2, 3), (3, 3, 1)]
        table = np.zeros((4, 4, 4), dtype=bool)
        table[tuple(zip(*triples))] = True
        cov = CoveringRelation(algebra, table)
        assert cov.true_triples() == sorted(triples)
        for a in range(4):
            for b in range(4):
                for d in range(4):
                    assert cov.holds(a, b, d) == ((a, b, d) in triples)

    def test_table_is_frozen(self):
        cov = discrete_covering(2)
        with pytest.raises(ValueError):
            cov.table[0, 0, 0] = False

    @pytest.mark.parametrize("relation,shape", [(CoveringRelation, (2, 2, 2)), (ContactRelation, (2, 2))])
    def test_callers_array_stays_writable(self, relation, shape):
        # a C-contiguous bool array, and a contiguous view of a larger one,
        # would both pass through np.ascontiguousarray unchanged
        corner = (0,) * len(shape)
        table = np.zeros(shape, dtype=bool)
        larger = np.zeros((2, *shape), dtype=bool)
        for given in (table, larger[1]):
            rel = relation(FiniteBooleanAlgebra(1), given)
            given[corner] = True
            assert not rel.table.any()
            with pytest.raises(ValueError):
                rel.table[corner] = True
        assert larger[1][corner]

    def test_wrong_shape_rejected(self):
        algebra = FiniteBooleanAlgebra(2)
        with pytest.raises(ValueError):
            CoveringRelation(algebra, np.zeros((4, 4), dtype=bool))

    def test_discrete_is_subset_covering(self):
        cov = discrete_covering(3)
        for a in range(8):
            for b in range(8):
                for d in range(8):
                    assert cov.holds(a, b, d) == ((a & b) & ~d == 0)


# ---------------------------------------------------------------------------
# axiom checkers against the naive oracles (the sanctioned k <= 3 sweep)


SEEDED_CASES = [
    (k, seed, density)
    for k in (1, 2, 3)
    for seed in range(12)
    for density in (0.15, 0.5, 0.9)
]


class TestCheckersMatchNaive:
    @pytest.mark.parametrize("k,seed,density", SEEDED_CASES)
    def test_eca_weca_consequences_rcl(self, k, seed, density):
        assert_covering_checkers_match(random_covering(k, random.Random(seed * 31 + k), density))

    @pytest.mark.parametrize("k,seed,density", SEEDED_CASES)
    def test_ca(self, k, seed, density):
        contact = random_contact(k, random.Random(seed * 57 + k), density)
        n = contact.algebra.size
        assert witnesses(check_ca(contact)) == oracles.naive_check_ca(n, contact.table)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_structured_tables(self, k):
        n = 1 << k
        for cov in (
            discrete_covering(k),
            CoveringRelation(FiniteBooleanAlgebra(k), np.zeros((n, n, n), dtype=bool)),
            CoveringRelation(FiniteBooleanAlgebra(k), np.ones((n, n, n), dtype=bool)),
        ):
            assert witnesses(check_eca(cov)) == oracles.naive_check_eca(n, cov.table)
            assert witnesses(check_weca(cov)) == oracles.naive_check_weca(n, cov.table)

    def test_discrete_passes_everything(self):
        for k in (1, 2, 3, 4):
            cov = discrete_covering(k)
            assert check_eca(cov).all_passed
            assert check_weca(cov).all_passed
            assert check_weca_consequences(cov).all_passed
            assert check_relative_contact_laws(cov).all_passed
            assert check_ca(derived_contact(cov)).all_passed

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            check_eca(discrete_covering(4), cap_elements=8)

    def test_report_structure(self):
        report = check_eca(discrete_covering(2))
        assert [r.name for r in report.results] == [
            "ECA1",
            "ECA2",
            "ECA3",
            "ECA4",
            "ECA5",
        ]
        assert report.all_passed and report.failures() == ()
        broken = CoveringRelation(
            FiniteBooleanAlgebra(1), np.zeros((2, 2, 2), dtype=bool)
        )
        failing = check_eca(broken)
        assert not failing.all_passed
        assert all(r.witness is not None for r in failing.failures())


# ---------------------------------------------------------------------------
# reduced verdicts against the naive oracles on near-passing tables


def alexandrov_covering(k: int, flips: int, rng: random.Random) -> CoveringRelation:
    """The covering of a space with k open core points and one to three
    boundary points, each in the closure of two or more cores (so k atoms
    that overlap on the boundary), with ``flips`` seeded symmetric flips."""
    boundary = [rng.sample(range(k), rng.randint(2, k)) for _ in range(rng.randint(1, 3))]
    masks = [1 << i for i in range(k)] + [
        1 << (k + j) | sum(1 << i for i in cores) for j, cores in enumerate(boundary)
    ]
    table = eca_from_rc(rc_algebra(build(k + len(boundary), masks)), cap_elements=1 << k)
    table = table.covering.table.copy()
    n = len(table)
    for _ in range(flips):
        a, b, d = (rng.randrange(n) for _ in range(3))
        table[a, b, d] = table[b, a, d] = not table[a, b, d]
    return CoveringRelation(FiniteBooleanAlgebra(k), table)


def broken_covering(k: int, rng: random.Random) -> CoveringRelation:
    """A topology-derived table with symmetric flips, like the failing
    inputs of the benchmark's axioms workload: the first flip breaks ECA3
    (a side below the cover) or ECA4 (a meet outside it), and up to two more
    are random."""
    table = alexandrov_covering(k, 0, rng).table.copy()
    n = len(table)
    while True:
        a, b, d = (rng.randrange(n) for _ in range(3))
        if a & ~d == 0 or a & b & ~d:
            break
    for a, b, d in [(a, b, d)] + [tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(0, 2))]:
        table[a, b, d] = table[b, a, d] = not table[a, b, d]
    return CoveringRelation(FiniteBooleanAlgebra(k), table)


def down_closed_covering(k: int, rng: random.Random) -> CoveringRelation:
    """Pairs with an empty member, plus the down-closure of more random pairs
    the larger the cover: WECA1, WECA2 and WECA4 hold, and WECA3 fails
    unless the pairs happen to nest."""
    n = 1 << k
    seeds = [(rng.randrange(1, n), rng.randrange(1, n)) for _ in range(k + 1)]
    return covering_of(
        FiniteBooleanAlgebra(k),
        lambda a, b, f: a == 0
        or b == 0
        or any(a & ~d == 0 and b & ~e == 0 for d, e in seeds[: 1 + bin(f).count("1")]),
    )


def sublattice_covering(k: int, rng: random.Random) -> CoveringRelation:
    """Each cover's slice a product of intervals [p, q] x [r, s], or empty:
    a sublattice of B x B^op, so WECA3 holds, while WECA1 fails as soon as
    some slice has p or r nonzero."""
    n = 1 << k
    e = np.arange(n)
    table = np.zeros((n, n, n), dtype=bool)
    for f in range(n):
        if rng.random() < 0.2:
            continue
        p, r = rng.randrange(n), rng.randrange(n)
        q, s = p | rng.randrange(n), r | rng.randrange(n)
        in_a = (p & ~e == 0) & (e & ~q == 0)
        in_b = (r & ~e == 0) & (e & ~s == 0)
        table[:, :, f] = in_a[:, None] & in_b[None, :]
    return CoveringRelation(FiniteBooleanAlgebra(k), table)


def up_closed_contact(k: int, rng: random.Random) -> ContactRelation:
    """The up-closure of a few random pairs: monotone (CA1), and usually not
    distributive over joins (CA2)."""
    n = 1 << k
    seeds = [(rng.randrange(1, n), rng.randrange(1, n)) for _ in range(rng.randint(1, 3))]
    return contact_of(
        FiniteBooleanAlgebra(k),
        lambda a, b: any(d & ~a == 0 and e & ~b == 0 for d, e in seeds),
    )


def atom_extended_contact(k: int, pairs) -> ContactRelation:
    """The join-extension of a relation on zero and the atoms, given as
    index pairs into (0, 1, 2, 4, ...): a C b iff some pair (i, j) has its
    i-th element below a and its j-th below b."""
    base = [0] + [1 << i for i in range(k)]
    return contact_of(
        FiniteBooleanAlgebra(k),
        lambda a, b: any(base[i] & ~a == 0 and base[j] & ~b == 0 for i, j in pairs),
    )


def assert_contact_checker_matches(contact: ContactRelation) -> None:
    """The checker gives the oracle's report, and its closed form (which
    returns the shared all-passed report) is exact."""
    n, k = contact.algebra.size, contact.algebra.atom_count
    naive = oracles.naive_check_ca(n, contact.table.tolist())
    report = check_ca(contact)
    assert witnesses(report) == naive
    assert (report is _PASSED["CA"]) == all_none(naive)
    assert _ca12_mismatch(contact.table, k).any() == ((naive["CA1"], naive["CA2"]) != (None, None))


def all_none(report: dict) -> bool:
    return all(w is None for w in report.values())


def assert_covering_checkers_match(cov: CoveringRelation) -> None:
    """The checkers give the oracles' reports, and the memoised verdict and
    each reduced verdict are exact, so a passing table never reaches the
    literal search."""
    n, k = cov.algebra.size, cov.algebra.atom_count
    or_t = algebra_module._tables(k)[3]
    table = cov.table.tolist()
    naive = oracles.naive_check_eca(n, table)
    assert witnesses(check_eca(cov)) == naive
    assert (cov._strength == "ECA") == all_none(naive)
    if all_none(naive):
        assert (covering_from_signatures(k, signatures(cov)).table == cov.table).all()
    assert _eca1(cov.table, n, k, or_t) == naive["ECA1"]
    naive = oracles.naive_check_weca(n, table)
    assert witnesses(check_weca(cov)) == naive
    assert (cov._strength is not None) == all_none(naive)
    if all_none(naive):
        assert (covering_from_slices(k, atom_slices(cov)).table == cov.table).all()
    assert _weca3_holds(cov.table, k) == (naive["WECA3"] is None)
    naive = oracles.naive_weca_consequences(n, table)
    assert witnesses(check_weca_consequences(cov)) == naive
    naive = oracles.naive_relative_contact_laws(n, table)
    assert witnesses(check_relative_contact_laws(cov)) == naive
    assert _ca12_mismatch(~cov.table, k).any() == ((naive["RCL1"], naive["RCL2"]) != (None, None))
    assert_contact_checker_matches(ContactRelation(cov.algebra, ~cov.table[:, :, 0]))


class TestReducedVerdictsMatchNaive:
    @pytest.mark.parametrize("k,flips", [(k, f) for k in (2, 3, 4) for f in range(4)])
    def test_topology_derived_with_flips(self, k, flips):
        assert_covering_checkers_match(alexandrov_covering(k, flips, random.Random(k * 7 + flips)))

    def test_every_one_atom_table(self):
        for bits in range(256):
            table = np.array([bits >> i & 1 for i in range(8)], dtype=bool).reshape(2, 2, 2)
            assert_covering_checkers_match(CoveringRelation(FiniteBooleanAlgebra(1), table))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_topology_derived_tables(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
        algebra = rc_algebra(build(n, masks))
        if len(algebra.atoms) > 3:
            return
        cov = eca_from_rc(algebra).covering
        assert check_eca(cov).all_passed
        assert_covering_checkers_match(cov)

    @pytest.mark.parametrize("k,flips,seed", [(k, f, s) for k in (1, 2, 3) for f in (0, 1, 2) for s in range(3)])
    def test_slice_generated_tables(self, k, flips, seed):
        cov = slice_generated_covering(k, flips, random.Random(seed * 10 + k))
        if flips == 0:
            assert check_weca(cov).all_passed
        assert_covering_checkers_match(cov)

    @pytest.mark.parametrize("grown", ["left", "right"])
    def test_eca1_fails_on_one_side_only(self, grown):
        # (a, b) |- f iff the other member lies inside the grown one:
        # growing that member keeps the triple covered, growing the other not
        cov = covering_of(
            FiniteBooleanAlgebra(2),
            lambda a, b, f: (b & ~a if grown == "left" else a & ~b) == 0,
        )
        assert witnesses(check_eca(cov))["ECA1"] is not None
        assert_covering_checkers_match(cov)

    @pytest.mark.parametrize("k,seed", [(k, s) for k in (2, 3) for s in range(4)])
    def test_weca1_holds(self, k, seed):
        cov = down_closed_covering(k, random.Random(seed))
        report = witnesses(check_weca(cov))
        assert report["WECA1"] is None and report["WECA2"] is None and report["WECA4"] is None
        assert_covering_checkers_match(cov)

    def test_weca1_holds_weca3_fails(self):
        # every cover's slice is down-closed, but row 1 holds atoms 1 and 2
        # without their join 3
        cov = covering_of(
            FiniteBooleanAlgebra(2), lambda a, b, f: a == 0 or b == 0 or (a == 1 and b < 3)
        )
        report = witnesses(check_weca(cov))
        assert report["WECA1"] is None and report["WECA3"] is not None
        assert_covering_checkers_match(cov)

    @pytest.mark.parametrize("flips,seed", [(1, 7), (1, 8), (1, 15), (3, 31)])
    def test_weca1_fails_weca3_holds_flipped(self, flips, seed):
        cov = alexandrov_covering(2, flips, random.Random(seed))
        report = witnesses(check_weca(cov))
        assert report["WECA1"] is not None and report["WECA3"] is None
        assert_covering_checkers_match(cov)

    @pytest.mark.parametrize("k,seed", [(k, s) for k in (2, 3, 4) for s in range(2)])
    def test_weca1_fails_weca3_holds_sublattices(self, k, seed):
        cov = sublattice_covering(k, random.Random(seed))
        report = witnesses(check_weca(cov))
        assert report["WECA1"] is not None and report["WECA3"] is None
        assert_covering_checkers_match(cov)

    @pytest.mark.parametrize("k,flips,seed", [(2, 1, 0), (2, 2, 3), (3, 1, 0), (3, 2, 5), (4, 1, 0)])
    def test_weca1_and_weca3_fail(self, k, flips, seed):
        cov = alexandrov_covering(k, flips, random.Random(seed))
        report = witnesses(check_weca(cov))
        assert report["WECA1"] is not None and report["WECA3"] is not None
        assert_covering_checkers_match(cov)

    def test_weca3_witness_outside_first_failing_cover(self):
        # the lex-first witness (0, 5, 7, 7, 7) has a larger cover than
        # violations such as (1, 2, 14, 2, 2): scanning covers first would
        # report one of those
        cov = alexandrov_covering(4, 2, random.Random(27))
        witness = oracles.naive_check_weca(16, cov.table.tolist())["WECA3"]
        assert witness == (0, 5, 7, 7, 7)
        assert witnesses(check_weca(cov))["WECA3"] == witness

    @pytest.mark.parametrize("k,seed", [(k, s) for k in (2, 3) for s in range(4)])
    def test_ca1_holds(self, k, seed):
        contact = up_closed_contact(k, random.Random(seed))
        assert witnesses(check_ca(contact))["CA1"] is None
        assert_contact_checker_matches(contact)

    def test_ca1_holds_ca2_fails(self):
        contact = contact_of(
            FiniteBooleanAlgebra(2), lambda a, b: a == 3 and b == 3
        )
        report = witnesses(check_ca(contact))
        assert report["CA1"] is None and report["CA2"] is not None
        assert_contact_checker_matches(contact)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_true_contact(self, k):
        n = 1 << k
        contact = ContactRelation(FiniteBooleanAlgebra(k), np.ones((n, n), dtype=bool))
        report = witnesses(check_ca(contact))
        assert report["CA1"] is None and report["CA2"] is None
        assert_contact_checker_matches(contact)
        # the empty covering is all-true relative contact for every g
        empty = CoveringRelation(FiniteBooleanAlgebra(k), np.zeros((n, n, n), dtype=bool))
        assert_covering_checkers_match(empty)

    @pytest.mark.parametrize(
        "failing,added,dropped",
        [("CA3", [(0, 1), (1, 0)], []), ("CA4", [], [(1, 1)]), ("CA5", [(1, 2)], [])],
    )
    def test_one_conjunct_of_the_closed_form_fails(self, failing, added, dropped):
        # the join-extension of the atoms' overlap, so CA1 and CA2 hold,
        # changed on zero and the atoms: contact with zero, one atom not in
        # contact with itself, or one asymmetric atom pair
        pairs = [(i, i) for i in range(1, 4) if (i, i) not in dropped] + added
        contact = atom_extended_contact(3, pairs)
        report = witnesses(check_ca(contact))
        assert [name for name, w in report.items() if w is not None] == [failing]
        assert_contact_checker_matches(contact)


class TestFailingTablesMatchThePerPairSearch:
    """Past three atoms the naive loops take too long; the per-pair searches
    of the oracles check the ECA1 fixpoint and the chunked ECA2 instead."""

    @pytest.mark.parametrize("k", [4, 5])
    def test_eca1_fixpoint(self, k):
        n, rng = 1 << k, random.Random(k)
        or_t = algebra_module._tables(k)[3]
        failing = 0
        for _ in range(50):
            table = broken_covering(k, rng).table
            witness = oracles.eca1_per_pair(table)
            assert _eca1(table, n, k, or_t) == witness
            failing += witness is not None
        assert failing >= 25

    def test_eca2_past_the_first_chunk(self):
        # at six atoms a chunk holds 256 of the 4096 rows
        rng = random.Random(6)
        late = 0
        for _ in range(4):
            table = broken_covering(6, rng).table
            witness = oracles.eca2_per_pair(table)
            assert _eca2(table, 64) == witness
            if witness is not None:
                row = witness[0] * 64 + witness[1]
                rows = table.reshape(4096, 64)
                late += (rows[:row].any(axis=1) & ~rows[:row].all(axis=1)).sum() >= 256
        assert late


class TestPassingTablesSkipTheLiteralSearch:
    """At k = 7 the literal searches take seconds; a passing table is
    decided by its one verdict, and its derived contact by CA's closed
    form."""

    @pytest.mark.parametrize("source", ["discrete", "topology"])
    def test_seven_atoms(self, source, monkeypatch):
        def literal(*args):
            raise AssertionError("a literal search ran on a passing table")

        for name in ("_eca1", "_eca2", "_weca1", "_weca3", "_cons3", "_cons4", "_ca1", "_ca2"):
            monkeypatch.setattr(algebra_module, name, literal)
        if source == "discrete":
            cov = discrete_covering(7)
        else:
            cov = alexandrov_covering(7, 0, random.Random(7))
        for check in (check_eca, check_weca, check_weca_consequences):
            assert check(cov, cap_elements=128).all_passed
        with monkeypatch.context() as patch:
            patch.setattr(algebra_module, "_ca12_mismatch", literal)
            assert check_relative_contact_laws(cov, cap_elements=128).all_passed
        contact = derived_contact(cov)
        assert check_ca(contact, cap_elements=128).all_passed


class TestOneVerdictPerTable:
    """The four covering checkers share one memoised verdict, so a table is
    generated from its slices at most once, whichever of them runs."""

    @staticmethod
    def spy(monkeypatch) -> list[int]:
        calls: list[int] = []
        generate = algebra_module._covering_of_slices

        def counted(slices, k):
            calls.append(k)
            return generate(slices, k)

        monkeypatch.setattr(algebra_module, "_covering_of_slices", counted)
        return calls

    @pytest.mark.parametrize("source", ["discrete", "topology", "weak", "flipped"])
    def test_one_generation_per_table(self, source, monkeypatch):
        rng = random.Random(5)
        cov = {
            "discrete": lambda: discrete_covering(4),
            "topology": lambda: alexandrov_covering(4, 0, rng),
            "weak": lambda: slice_generated_covering(4, 0, rng),
            "flipped": lambda: alexandrov_covering(3, 2, rng),
        }[source]()
        calls = self.spy(monkeypatch)
        checks = (check_weca, check_eca, check_weca_consequences, check_relative_contact_laws)
        reports = [check(cov) for check in checks] + [check(cov) for check in checks]
        passed = {"discrete": [True] * 8, "topology": [True] * 8, "weak": [True, False, True, False] * 2}
        if source in passed:
            assert [r.all_passed for r in reports] == passed[source]
            assert calls == [4]
        else:
            assert cov._strength is None and len(calls) <= 1

    def test_one_verdict_per_random_trial(self, monkeypatch, capsys):
        # each trial generates its covering from the points' signatures
        # once, and the four checkers share one verdict on it
        from mereotop.cli import main

        calls = self.spy(monkeypatch)
        for trials in (1, 4):
            calls.clear()
            assert main(["random", "--seed", "7", "--trials", str(trials), "--json"]) == 0
            assert len(calls) == 2 * trials
        capsys.readouterr()

    def test_caller_arrays_are_copied(self):
        # a table the caller still holds cannot change the relation or
        # its memoised verdict
        arr = discrete_covering(2).table.copy()
        cov = CoveringRelation(FiniteBooleanAlgebra(2), arr)
        assert cov._strength == "ECA"
        arr[3, 3, 0] = True
        assert not cov.table[3, 3, 0] and cov._strength == "ECA"
        assert check_eca(cov).all_passed

    def test_atom_slices_are_read_once_and_read_only(self):
        # the verdict, signatures() and atom_slices() share one memoised
        # array, which no caller can change
        cov = discrete_covering(3)
        slices = atom_slices(cov)
        assert atom_slices(cov) is slices and not slices.flags.writeable
        with pytest.raises(ValueError):
            slices[0, 0, 0] = True
        assert cov._strength == "ECA" and signatures(cov) == (1, 2, 4)

    def test_fresh_tables_are_frozen_in_place(self, monkeypatch):
        def copied(*args):
            raise AssertionError("a table the library allocated was copied")

        monkeypatch.setattr(algebra_module, "_frozen_table", copied)
        cov = discrete_covering(2)
        for relation in (
            cov,
            covering_from_signatures(2, [1, 2]),
            covering_from_slices(2, atom_slices(cov)),
            covering_from_document({"atoms": 1, "covering": [[0, 0, 0]]}),
            derived_contact(cov),
        ):
            assert not relation.table.flags.writeable


class TestConsequencesOnFailingTables:
    def test_six_atoms_in_cubic_memory(self):
        # fails the weak axioms, so no rebuild decides it, and CONS3/CONS4
        # hold, so every leading index is searched; one (N, N, N, N) bool
        # array would be 16 MiB
        table = discrete_covering(6).table.copy()
        table[63, 63, 0] = True
        cov = CoveringRelation(FiniteBooleanAlgebra(6), table)
        tracemalloc.start()
        try:
            report = check_weca_consequences(cov, cap_elements=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = dict.fromkeys(("CONS1", "CONS2", "CONS3", "CONS4"))
        assert witnesses(report) == {**expected, "CONS5": (63, 63, 1, 0), "CONS6": (63, 63, 1, 0)}
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_shrink_witnesses_match_oracle(self, k):
        # the discrete table with the full pair covered by zero: CONS5 and
        # CONS6 fail at the last (a, b) only
        n = 1 << k
        table = discrete_covering(k).table.copy()
        table[n - 1, n - 1, 0] = True
        report = check_weca_consequences(CoveringRelation(FiniteBooleanAlgebra(k), table), cap_elements=n)
        assert witnesses(report) == oracles.naive_weca_consequences(n, table.tolist())

    def test_shrink_search_runs_on_the_failing_pair_only(self):
        # a search over every (a, b) row before the failing one takes about
        # 0.2 s per side at k = 6; the fold leaves one row to search
        table = discrete_covering(6).table.copy()
        table[63, 63, 0] = True
        cov = CoveringRelation(FiniteBooleanAlgebra(6), table)
        times = []
        for _ in range(3):
            started = time.perf_counter()
            report = check_weca_consequences(cov, cap_elements=64)
            times.append(time.perf_counter() - started)
        assert witnesses(report)["CONS5"] == witnesses(report)["CONS6"] == (63, 63, 1, 0)
        assert min(times) < 0.2


# ---------------------------------------------------------------------------
# the generators: signatures S* and atom slices R_f


class TestGenerators:
    @pytest.mark.parametrize("k,seed", [(k, s) for k in (1, 2, 3, 4) for s in range(8)])
    def test_signature_kernel_matches_oracle(self, k, seed):
        # arbitrary families: rarely closed, sometimes empty, sometimes with 0
        n, rng = 1 << k, random.Random(seed * 13 + k)
        family = [s for s in range(n) if rng.random() < (0.1, 0.3, 0.6, 0.9)[seed % 4]]
        table = covering_from_signatures(k, family).table
        assert (table == np.array(oracles.naive_covering_of_signatures(n, family))).all()

    @pytest.mark.parametrize("k,seed", [(k, s) for k in (1, 2, 3, 4) for s in range(8)])
    def test_slice_kernel_matches_oracle(self, k, seed):
        # arbitrary slices, so R_f need not grow with f
        n, rng = 1 << k, random.Random(seed * 17 + k)
        density = (0.1, 0.5, 0.8, 0.95)[seed % 4]
        slices = np.array([rng.random() < density for _ in range(n * k * k)]).reshape(n, k, k)
        table = covering_from_slices(k, slices).table
        assert (table == np.array(oracles.naive_covering_of_slices(n, k, slices.tolist()))).all()
        assert (atom_slices(covering_from_slices(k, slices)) == slices).all()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signatures_of_a_generated_covering(self, k):
        # sigma is in S* of the covering of S iff each pair of its atoms
        # (one atom twice allowed) lies in some member of S inside sigma
        n = 1 << k
        for bits in range(1 << (n - 1)):
            family = [s for s in range(1, n) if bits >> (s - 1) & 1]
            closed = oracles.naive_signature_closure(k, family)
            assert signatures(covering_from_signatures(k, family)) == closed

    @pytest.mark.parametrize("k,seed", [(k, s) for k in (4, 5) for s in range(6)])
    def test_round_trip_is_the_closure(self, k, seed):
        # family -> slices -> family is the lemma's closure, on sampled families
        n, rng = 1 << k, random.Random(seed * 19 + k)
        for _ in range(8):
            family = [s for s in range(1, n) if rng.random() < (0.05, 0.15, 0.4)[seed % 3]]
            assert signatures(covering_from_signatures(k, family)) == oracles.naive_signature_closure(k, family)

    @pytest.mark.parametrize("k,seed", [(k, s) for k in (1, 2, 3) for s in range(6)])
    def test_eca_verdict_matches_oracle_where_the_family_is_not_s_star(self, k, seed):
        # G, the family read off the slices, contains S* and equals it on
        # tables antitone in the pair and monotone in the cover; flipped and
        # random tables leave that domain, and the verdict stays exact
        n, rng = 1 << k, random.Random(seed * 23 + k)
        family = [s for s in range(1, n) if rng.random() < 0.5]
        if seed % 2:
            family += [1 << i for i in range(k)]
        tables = [covering_from_signatures(k, family).table]
        for flips in (1, 2, 3):
            table = tables[0].copy()
            for _ in range(flips):
                a, b, d = (rng.randrange(n) for _ in range(3))
                table[a, b, d] = not table[a, b, d]
            tables.append(table)
        tables += [np.array([rng.random() < p for _ in range(n**3)]).reshape(n, n, n) for p in (0.7, 0.9)]
        for table in tables:
            cov = CoveringRelation(FiniteBooleanAlgebra(k), table)
            lists = table.tolist()
            assert check_eca(cov).all_passed == all_none(oracles.naive_check_eca(n, lists))
            assert (cov._strength == "ECA") == all_none(oracles.naive_check_eca(n, lists))
            s_star, weak = oracles.naive_signatures(n, lists), oracles.naive_check_weca(n, lists)
            assert set(signatures(cov)) >= set(s_star)
            if weak["WECA1"] is None and weak["WECA4"] is None:
                assert signatures(cov) == s_star

    def test_signatures_off_the_antitone_domain(self):
        # only (3, 3) |- 0: not antitone, since (1, 1) is not covered by 0.
        # No pair of atoms is covered, so every set is read off the slices,
        # while (3, 3, 0) keeps every nonempty set out of S*
        table = np.zeros((4, 4, 4), dtype=bool)
        table[3, 3, 0] = True
        cov = CoveringRelation(FiniteBooleanAlgebra(2), table)
        assert signatures(cov) == (1, 2, 3)
        assert oracles.naive_signatures(4, table.tolist()) == ()

    @pytest.mark.parametrize("chunk", [1, 100, 3000])
    def test_chunked_kernel_matches_oracle(self, chunk, monkeypatch):
        # one row per chunk, and chunks that leave a short last one
        monkeypatch.setattr(algebra_module, "_PRODUCT_CHUNK_ELEMENTS", chunk)
        k, n, rng = 4, 16, random.Random(chunk)
        slices = np.array([rng.random() < 0.8 for _ in range(n * k * k)]).reshape(n, k, k)
        table = covering_from_slices(k, slices).table
        assert (table == np.array(oracles.naive_covering_of_slices(n, k, slices.tolist()))).all()

    def test_eight_atoms_through_the_chunked_kernel(self):
        # k^2 = 64 counts per entry, in chunks of 16 rows of 65 536 entries
        discrete = discrete_covering(8).table
        atoms = [1 << i for i in range(8)]
        assert (covering_from_signatures(8, atoms).table == discrete).all()
        assert (covering_from_slices(8, atom_slices(discrete_covering(8))).table == discrete).all()

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 15), (4, 1218)])
    def test_census_of_closed_families(self, k, count):
        # the closed families holding every single atom are the ECAs: each
        # is its own round trip, and each covering passes both axiom systems
        n = 1 << k
        singletons = [1 << i for i in range(k)]
        larger = [s for s in range(1, n) if s.bit_count() > 1]
        closed = 0
        for bits in range(1 << len(larger)):
            family = singletons + [s for i, s in enumerate(larger) if bits >> i & 1]
            cov = covering_from_signatures(k, family)
            if signatures(cov) == tuple(sorted(family)):
                closed += 1
                assert check_eca(cov).all_passed and check_weca(cov).all_passed
        assert closed == count

    def test_discrete_and_space_coverings(self):
        assert signatures(discrete_covering(3)) == (1, 2, 4)
        slices = atom_slices(discrete_covering(2))
        assert slices.shape == (4, 2, 2)
        assert (slices[:, 0, 1] == slices[:, 1, 0]).all() and slices[:, 0, 1].all()
        assert (slices[:, 0, 0] == [False, True, False, True]).all()
        # the points 2, 3, 1, 7, 5, 6, 4 of the example space have the atom
        # signatures 1..7
        assert signatures(eca_from_rc(rc_algebra(example_topology())).covering) == tuple(range(1, 8))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            covering_from_signatures(2, [1, 4])
        with pytest.raises(ValueError):
            covering_from_slices(2, np.zeros((4, 2, 3), dtype=bool))

    @pytest.mark.parametrize(
        "family,bad",
        [
            ([1, 4], 4),
            ([3, -1], -1),
            ([3, -1, 9], -1),
            ([2, 1 << 63], 1 << 63),
            ([1 << 70, -5], 1 << 70),
            ([0, 2, 5, 4], 5),
        ],
    )
    def test_names_the_first_member_out_of_range(self, family, bad):
        with pytest.raises(ValueError) as caught:
            covering_from_signatures(2, family)
        assert str(caught.value) == f"{bad} is not an element mask of a 2-atom algebra"

    def test_accepts_empty_and_generated_families(self):
        assert covering_from_signatures(2, []).table.all()  # no member splits a pair
        assert covering_from_signatures(2, iter([3, 0, 3])).table.tolist() == (
            covering_from_signatures(2, [3]).table.tolist()
        )


# ---------------------------------------------------------------------------
# the verdict that names a covering's axiom system, and the derived relations


class TestVerifiedAlgebras:
    def test_violation_carries_report(self):
        empty = CoveringRelation(
            FiniteBooleanAlgebra(1), np.zeros((2, 2, 2), dtype=bool)
        )
        report = check_eca(empty)
        err = AxiomViolation("extended contact axioms", report)
        assert err.report is report and not report.all_passed
        assert str(err) == "extended contact axioms violated: ECA3 at (0, 0, 0)"

    def test_every_eca_is_a_weca(self):
        for masks in ([()], [(0b011,)], [(0b001,), (0b110,)], [(0b01,), (0b10,)]):
            n = max(3, max((m[0].bit_length() for m in masks if m), default=1))
            topo = build(n, [m[0] for m in masks if m])
            cov = eca_from_rc(rc_algebra(topo)).covering
            assert check_eca(cov).all_passed
            assert check_weca(cov).all_passed

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_derived_contact_requires_eca(self, k):
        # weak only, and not even weak: both verdicts fail the full axioms
        empty = CoveringRelation(FiniteBooleanAlgebra(k), np.zeros((1 << k,) * 3, dtype=bool))
        for cov in (zero_sided_covering(k), empty):
            assert not check_eca(cov).all_passed
            with pytest.raises(ValueError, match="full extended contact axioms"):
                derived_contact(cov)

    def test_derived_contact_table(self):
        eca = discrete_covering(2)
        contact = derived_contact(eca)
        assert np.array_equal(contact.table, ~eca.table[:, :, 0])
        for a in range(4):
            for b in range(4):
                assert contact.holds(a, b) == (a & b != 0)

    def test_relative_contact_table(self):
        cov = discrete_covering(2)
        for g in range(4):
            rel = relative_contact(cov, g)
            assert np.array_equal(rel.table, ~cov.table[:, :, g])


# ---------------------------------------------------------------------------
# the covering of a regular closed algebra


def assert_matches_pointwise(algebra):
    teca = eca_from_rc(algebra)
    assert teca.covering._strength == "ECA"
    n = len(teca.element_sets)
    assert n == len(algebra.carrier)
    assert sorted(ps.bits for ps in teca.element_sets) == sorted(
        c.bits for c in algebra.carrier
    )
    for a in range(n):
        assert sum(1 << i for i, atom in enumerate(algebra.atoms) if atom.issubset(teca.element_sets[a])) == a
        for b in range(n):
            for d in range(n):
                meet = teca.element_sets[a] & teca.element_sets[b]
                assert teca.covering.holds(a, b, d) == meet.issubset(teca.element_sets[d])


class TestEcaFromRc:
    def test_example_matches_pointwise(self):
        assert_matches_pointwise(rc_algebra(example_topology()))

    def test_wide_universe_matches_pointwise(self):
        # 70 points: open cores 0, 1, 2 and two boundary groups, points 3..39
        # in the closures of cores 0 and 1, points 40..69 in those of 1 and 2
        group1 = sum(1 << x for x in range(3, 40))
        group2 = sum(1 << x for x in range(40, 70))
        algebra = rc_algebra(build(70, [0b001, 0b010, 0b100, 0b011 | group1, 0b110 | group2]))
        assert len(algebra.atoms) == 3
        assert_matches_pointwise(algebra)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_spaces_yield_ecas(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
        teca = eca_from_rc(rc_algebra(build(n, masks)))
        assert check_eca(teca.covering).all_passed
        assert check_weca(teca.covering).all_passed

    def test_cap(self):
        algebra = rc_algebra(generate_topology(7, [PointSet(7, 1 << i) for i in range(7)]))
        with pytest.raises(CapExceeded):
            eca_from_rc(algebra, cap_elements=64)


# ---------------------------------------------------------------------------
# algebraic internal connectedness


class TestInternallyConnectedAlgebraic:
    @pytest.mark.parametrize("k,seed,density", [(k, s, d) for k in (1, 2, 3) for s in range(6) for d in (0.3, 0.7)])
    def test_matches_naive_on_arbitrary_tables(self, k, seed, density):
        cov = random_covering(k, random.Random(seed * 13 + k), density)
        n = cov.algebra.size
        connected = internally_connected_algebraic(cov)
        assert len(connected) == n
        for a in range(n):
            assert connected[a] == oracles.naive_internally_connected(n, cov.table, a)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_at_four_atoms(self, seed):
        cov = random_covering(4, random.Random(seed), 0.1)
        connected = internally_connected_algebraic(cov)
        assert connected == tuple(
            oracles.naive_internally_connected(16, cov.table, a) for a in range(16)
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_topological_evaluator(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
        algebra = rc_algebra(build(n, masks))
        teca = eca_from_rc(algebra)
        connected = internally_connected_algebraic(teca.covering)
        for mask, element in enumerate(teca.element_sets):
            assert connected[mask] == rc_internally_connected(algebra, element)

    def test_example_region_connected(self):
        algebra = rc_algebra(example_topology())
        teca = eca_from_rc(algebra)
        mask = teca.element_sets.index(PointSet(7, X_REGION_MASK))
        assert internally_connected_algebraic(teca.covering)[mask]

    def test_empty_is_connected(self):
        assert internally_connected_algebraic(discrete_covering(2))[0]

    def test_discrete_split_detected(self):
        # two atoms side by side: their join is internally disconnected
        assert internally_connected_algebraic(discrete_covering(2)) == (True, True, True, False)


# ---------------------------------------------------------------------------
# filters


def every_filter(algebra):
    return [Filter(algebra, m) for m in oracles.all_filters(algebra.size)]


class TestFiltersAndIdeals:
    def test_constructor_validates(self):
        algebra = FiniteBooleanAlgebra(2)
        Filter(algebra, frozenset({3}))
        Filter(algebra, frozenset({1, 3}))
        Filter(algebra, frozenset({0, 1, 2, 3}))  # improper
        with pytest.raises(ValueError):
            Filter(algebra, frozenset())
        with pytest.raises(ValueError):
            Filter(algebra, frozenset({1}))  # not upward closed
        with pytest.raises(ValueError):
            Filter(algebra, frozenset({1, 2, 3}))  # no meet

    @pytest.mark.parametrize(
        "k,members,message",
        [
            (2, {1}, "not up-closed: 1 in, superset 3 out"),
            (2, {1, 2, 3}, "not meet-closed: 1 and 2 in, 0 out"),
            (3, {3, 5, 7}, "not meet-closed: 3 and 5 in, 1 out"),
            (2, {4}, "4 is not an element mask"),
            (2, set(), "a filter must be nonempty"),
        ],
    )
    def test_rejection_names_the_fault(self, k, members, message):
        with pytest.raises(ValueError) as err:
            Filter(FiniteBooleanAlgebra(k), frozenset(members))
        assert str(err.value) == message

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_subset_matches_oracle(self, k):
        algebra = FiniteBooleanAlgebra(k)
        for bits in range(1, 1 << algebra.size):
            members = frozenset(x for x in range(algebra.size) if bits >> x & 1)
            try:
                Filter(algebra, members)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == oracles.is_filter(algebra.size, members), sorted(members)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_filter_is_principal(self, k):
        algebra = FiniteBooleanAlgebra(k)
        for f in every_filter(algebra):
            assert f.members == principal_filter(algebra, f.generator).members

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_maximal_filters(self, k):
        algebra = FiniteBooleanAlgebra(k)
        maximal = maximal_filters(algebra)
        assert len(maximal) == k
        assert [f.generator for f in maximal] == list(algebra.atom_masks)
        for f in maximal:
            assert f.is_proper
            assert oracles.is_filter(algebra.size, f.members)

    def test_left_right_sets_are_ideals(self):
        cov = discrete_covering(3)
        algebra = cov.algebra
        for f in every_filter(algebra):
            for d in range(algebra.size):
                left = left_set(cov, f, d)
                right = right_set(cov, f, d)
                assert oracles.is_ideal(algebra.size, left)
                assert oracles.is_ideal(algebra.size, right)
                expected_left = {
                    b
                    for b in range(algebra.size)
                    if any(cov.holds(a, b, d) for a in f.members)
                }
                assert left == expected_left

    def test_left_set_frozen_case(self):
        # two-atom subset covering, filter generated by the first atom,
        # d = 0: exactly the zero element and the other atom land left
        cov = discrete_covering(2)
        u = principal_filter(cov.algebra, 0b01)
        assert left_set(cov, u, 0) == {0, 0b10}
        assert right_set(cov, u, 0) == {0, 0b10}

    def test_separation_three_ways_agree(self):
        for k in (1, 2):
            cov = discrete_covering(k)
            algebra = cov.algebra
            filters = every_filter(algebra)
            for u in filters:
                for v in filters:
                    for d in range(algebra.size):
                        sep = check_filter_separation_equivalence(cov, u, v, d)
                        assert sep.agree

    def test_separation_frozen_case(self):
        cov = discrete_covering(2)
        u = principal_filter(cov.algebra, 0b01)
        sep = check_filter_separation_equivalence(cov, u, u, 0)
        assert (sep.no_covered_pair, sep.left_set_misses_v, sep.right_set_misses_u) == (
            True,
            True,
            True,
        )


# ---------------------------------------------------------------------------
# documents


ATOMS = '"atoms" must be a positive integer'
MALFORMED_COVERINGS = [
    ({"covering": []}, ATOMS),
    ({"atoms": 0, "covering": []}, ATOMS),
    ({"atoms": True, "covering": []}, ATOMS),
    ({"atoms": 2}, '"covering" must be an array of [a, b, d] triples'),
    ({"atoms": 2, "covering": [[0, 0]]}, "bad covering triple [0, 0]"),
    ({"atoms": 2, "covering": [[0, 0, 4]]}, "triple [0, 0, 4] out of range for a 2-atom algebra"),
    ({"atoms": 2, "covering": [[0, 0, True]]}, "bad covering triple [0, 0, True]"),
    ({"atoms": 2, "covering_mode": "dense"}, "unknown covering_mode 'dense'"),
    (
        {"atoms": 2, "covering_mode": "discrete", "covering": []},
        'give either "covering" or "covering_mode", not both',
    ),
    ("nope", "covering document must be a JSON object"),
    ({"atoms": 2, "covering": [[0, 1.0, 2]]}, "bad covering triple [0, 1.0, 2]"),
    ({"atoms": 2, "covering": [[0, [1], 2]]}, "bad covering triple [0, [1], 2]"),
    ({"atoms": 2, "covering": [[0, 1, 2, 3]]}, "bad covering triple [0, 1, 2, 3]"),
    ({"atoms": 2, "covering": [{"a": 0}]}, "bad covering triple {'a': 0}"),
    (
        {"atoms": 2, "covering": [[0, 2**70, 1]]},
        f"triple [0, {2**70}, 1] out of range for a 2-atom algebra",
    ),
    # the first bad triple in input order is reported, whatever its fault
    (
        {"atoms": 2, "covering": [[0, 0, 0], [0, 0, 4], [0, 0.5, 0]]},
        "triple [0, 0, 4] out of range for a 2-atom algebra",
    ),
    (
        {"atoms": 2, "covering": [[0, 0, 0], [0, 0.5, 0], [0, 0, 4]]},
        "bad covering triple [0, 0.5, 0]",
    ),
    # each bulk check on a valid first triple: bools and floats are not
    # ints, entries beyond int64 either way, a ragged triple, a non-list one
    ({"atoms": 2, "covering": [[0, 0, 0], [True, 1, 2]]}, "bad covering triple [True, 1, 2]"),
    ({"atoms": 2, "covering": [[1, 2, 3], [0, 0, 1.0]]}, "bad covering triple [0, 0, 1.0]"),
    (
        {"atoms": 2, "covering": [[0, 0, 0], [0, 1, 2**70]]},
        f"triple [0, 1, {2**70}] out of range for a 2-atom algebra",
    ),
    (
        {"atoms": 2, "covering": [[0, 0, 0], [-(2**70), 1, 1]]},
        f"triple [{-(2**70)}, 1, 1] out of range for a 2-atom algebra",
    ),
    (
        {"atoms": 2, "covering": [[0, 0, 0], [0, 2**63 - 1, 0]]},
        f"triple [0, {2**63 - 1}, 0] out of range for a 2-atom algebra",
    ),
    ({"atoms": 2, "covering": [[0, 0, 0], [0, -1, 0]]}, "triple [0, -1, 0] out of range for a 2-atom algebra"),
    ({"atoms": 2, "covering": [[0, 0, 0], [0, 1], [0, 1, 2]]}, "bad covering triple [0, 1]"),
    ({"atoms": 2, "covering": [[0, 0, 0], "012"]}, "bad covering triple '012'"),
    ({"atoms": 2, "covering": [[0, 0, 0], (0, 1, 2)]}, "bad covering triple (0, 1, 2)"),
    (
        {"atoms": 2, "covering": [[0, 0, 0], [0, 0, -1], [0, True, 0]]},
        "triple [0, 0, -1] out of range for a 2-atom algebra",
    ),
    (
        {"atoms": 2, "covering": [[0, 0, 0], [0, None, 0], [9, 9, 9]]},
        "bad covering triple [0, None, 0]",
    ),
]


class TestCoveringDocuments:
    def test_roundtrip(self):
        algebra = FiniteBooleanAlgebra(2)
        table = np.zeros((4, 4, 4), dtype=bool)
        table[(1, 0), (2, 0), (3, 0)] = True
        cov = CoveringRelation(algebra, table)
        doc = covering_document(cov)
        assert doc == {"atoms": 2, "covering": [[0, 0, 0], [1, 2, 3]]}
        again = covering_from_document(doc)
        assert np.array_equal(again.table, cov.table)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_tables(self, k, seed, density):
        n = 1 << k
        table = np.random.default_rng(seed).random((n, n, n)) < density
        cov = CoveringRelation(FiniteBooleanAlgebra(k), table)
        assert np.array_equal(covering_from_document(covering_document(cov)).table, table)

    def test_discrete_mode(self):
        cov = covering_from_document({"atoms": 3, "covering_mode": "discrete"})
        assert np.array_equal(cov.table, discrete_covering(3).table)

    @pytest.mark.parametrize(
        "doc,message",
        [
            pytest.param(doc, message, id=doc if isinstance(doc, str) else f"doc{i}")
            for i, (doc, message) in enumerate(MALFORMED_COVERINGS)
        ],
    )
    def test_malformed_rejected(self, doc, message):
        with pytest.raises(DocumentError) as err:
            covering_from_document(doc)
        assert str(err.value) == message


# Texts the byte reader must decline: covering_from_document parses each one
# (some are valid documents) and reports any fault.
DECLINED_TEXTS = [
    b'{"atoms": 4, "covering": [[01, 0, 0]]}',  # leading zeros, no longer than 15
    b'{"atoms": 4, "covering": [[0, 00, 1]]}',
    b'{"atoms": 02, "covering": []}',
    b'{"atoms": 4, "covering": [[1 1, 0, 0]]}',  # split numbers, 11 in range
    b'{"atoms": 4, "covering": [[0, 1\n2, 3]]}',
    b'{"atoms": 2, "covering": [[0, -1, 0]]}',  # signs
    b'{"atoms": 2, "covering": [[-0, 0, 0]]}',
    b'{"atoms": 2, "covering": [[+1, 0, 0]]}',
    b'{"atoms": 2, "covering": [[0, 1.0, 2]]}',  # floats and exponents
    b'{"atoms": 2, "covering": [[0, 1e0, 2]]}',
    b'{"atoms": 2, "covering": [[0, 1E0, 2]]}',
    b'{"atoms": 2.0, "covering": []}',
    b'{"atoms": 2, "covering": [[0, 4722366482869645213696, 0]]}',  # 2^72
    b'{"atoms": 2, "covering": [[0, 0, 4]]}',
    b'{"atoms": 7, "covering": [[0, 0, 0]]}',  # over the cap of 64
    b'{"atoms": 1000, "covering": []}',
    b'\xef\xbb\xbf{"atoms": 2, "covering": []}',  # a byte order mark
    b'{"atoms": 2, "atoms": 3, "covering": []}',  # duplicate keys
    b'{"atoms": 2, "covering": [], "covering": [[0, 0, 0]]}',
    b'{"atoms": 2, "covering": [], "covering_mode": "discrete"}',
    b'{"atoms": 2, "covering": []} x',  # trailing garbage
    b'{"atoms": 2, "covering": []}{}',
    b'{"atoms": 2, "covering": [[0, 0, 0]]}\r\n\x0b',
    b'{"atoms": 2, "covering": [[0, 0, 0]]}\xff',
    b'{"atoms": 2, "covering": [[0, 0, 0]]',
    b'{"atoms": 2,\x0b"covering": []}',  # not JSON whitespace
    b'{"atoms": 2, "covering": [[0,\x0b0, 0]]}',
    b'{"atoms": 2, "covering":\xc2\xa0[]}',  # a no-break space
    b'{"atoms": 2, "covering": [[0, 0, 0],]}',
    b'{"atoms": 2, "covering": [[0, 0]]}',
    b'{"atoms": 2, "covering": [[0, 0, 0, 0]]}',
    b'{"atoms": 2, "covering": [0, 0, 0]}',
    b'{"atoms": 2, "covering": [[]]}',
    b'{"atoms": 2, "covering": [["0", 0, 0]]}',
    b'{"atoms": 2, "covering": [[true, 0, 0]]}',
    b'{"atoms": 2, "covering": [[null, 0, 0]]}',
    b'{"atoms": 2,\r"covering": [[0, 0, x]]}',
]

SPACES = st.sampled_from(["", "", " ", "\t", "\n", "\r", "\r\n", "  "])
EDITS = st.sampled_from(["", *'0123456789 [],-.eE+"\t\n\r{}:x\x0b', "9" * 25, "1" + "0" * 20, "00"])


def spaced_document(data, k: int, triples: list) -> str:
    """The plain document of the triples, with random JSON whitespace
    around every token."""
    tokens = ["{", '"atoms"', ":", str(k), ",", '"covering"', ":", "["]
    for i, triple in enumerate(triples):
        tokens += ([","] if i else []) + ["[", str(triple[0]), ",", str(triple[1]), ",", str(triple[2]), "]"]
    tokens += ["]", "}"]
    return "".join(data.draw(SPACES) + token for token in tokens) + data.draw(SPACES)


def json_path_table(text: str) -> np.ndarray | None:
    try:
        return covering_from_document(json.loads(text), cap_elements=64).table
    except ValueError:  # JSONDecodeError, DocumentError and CapExceeded
        return None


class TestCoveringFromJson:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_reads_the_triple_list(self, k):
        table = np.random.default_rng(k).random((1 << k,) * 3) < 0.3
        raw = json.dumps(covering_document(CoveringRelation(FiniteBooleanAlgebra(k), table))).encode()
        assert np.array_equal(covering_from_json(raw, cap_elements=64).table, table)

    def test_whitespace_and_empty_list(self):
        raw = b' \r\n{"atoms":3 ,"covering"\t:[ [ 7 ,\n6\t, 5\r] , [0,0,0] ] }\n\n'
        assert covering_from_json(raw, cap_elements=64).true_triples() == [(0, 0, 0), (7, 6, 5)]
        assert covering_from_json(b'{"atoms": 1, "covering": []}', cap_elements=64).true_triples() == []

    def test_cap(self):
        raw = b'{"atoms": 4, "covering": [[15, 15, 15]]}'
        assert covering_from_json(raw, cap_elements=15) is None
        assert covering_from_json(raw, cap_elements=16).true_triples() == [(15, 15, 15)]

    @pytest.mark.parametrize("raw", DECLINED_TEXTS, ids=[f"text{i}" for i in range(len(DECLINED_TEXTS))])
    def test_declines(self, raw):
        assert covering_from_json(raw, cap_elements=64) is None

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_json_path(self, data, k):
        n = 1 << k
        triples = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=12))
        text = spaced_document(data, k, triples)
        assert np.array_equal(covering_from_json(text.encode(), cap_elements=64).table, json_path_table(text))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 2))
            text = text[:at] + data.draw(EDITS) + text[at + cut :]
        got = covering_from_json(text.encode(), cap_elements=64)
        if got is not None:
            expected = json_path_table(text)
            assert expected is not None and np.array_equal(got.table, expected), text
