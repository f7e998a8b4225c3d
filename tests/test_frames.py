"""Parametrized and equivalence frames: covering evaluators against the
naive oracles, antitone and non-antitone relation arrays, internal
connectedness on the frame side, and the powerset algebras of frames."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mereotop import (
    CapExceeded,
    EquivalenceFrame1,
    EquivalenceFrame2,
    ParametrizedFrame,
    check_eca,
    check_weca,
    frame2_internally_connected,
    powerset_eca,
)
from mereotop.frames import _reach, covering_table


def random_relation_tables(world_count: int, rng: random.Random) -> np.ndarray:
    """One random boolean relation per subset of worlds."""
    n = 1 << world_count
    cells = [rng.random() < 0.5 for _ in range(n * world_count * world_count)]
    return np.array(cells, dtype=bool).reshape(n, world_count, world_count)


def antitone_tables(world_count: int, rng: random.Random) -> np.ndarray:
    """R(U) = intersection of per-world base relations over the members of U
    (full relation at U = empty), which is antitone by construction."""
    base = [
        np.array(
            [rng.random() < 0.7 for _ in range(world_count * world_count)], dtype=bool
        ).reshape(world_count, world_count)
        for _ in range(world_count)
    ]
    tables = []
    for u in range(1 << world_count):
        rel = np.ones((world_count, world_count), dtype=bool)
        for w in range(world_count):
            if u >> w & 1:
                rel &= base[w]
        tables.append(rel)
    return np.array(tables)


def non_antitone_tables() -> np.ndarray:
    """Two worlds; R grows from nothing at U = {} to everything at U = {0}."""
    tables = random_relation_tables(2, random.Random(2))
    tables[0] = False
    tables[1] = True
    return tables


def oracle_reach(frame: ParametrizedFrame) -> np.ndarray:
    w = frame.world_count
    return np.array(
        [oracles.naive_pframe_reach(w, frame.relation, d) for d in range(1 << w)],
        dtype=bool,
    ).reshape(1 << w, w, w)


def assert_covering_matches_oracle(frame: ParametrizedFrame) -> None:
    """covering_table over every subset triple equals the literal superset
    quantifier of tests/oracles.py."""
    w = frame.world_count
    n = 1 << w
    table = covering_table(frame, range(n))
    for a in range(n):
        for b in range(n):
            for d in range(n):
                expected = oracles.naive_pframe_covering(w, frame.relation, a, b, d)
                assert table[a, b, d] == expected, (a, b, d)


def random_classes(world_count: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(world_count) for _ in range(world_count))


# ---------------------------------------------------------------------------
# parametrized frames


class TestParametrizedFrame:
    def test_from_tables_and_relation_access(self):
        tables = random_relation_tables(2, random.Random(0))
        frame = ParametrizedFrame(tables)
        assert frame.world_count == 2
        for u in range(4):
            assert np.array_equal(frame.relation(u), tables[u])
        with pytest.raises(ValueError):
            frame.relation(0)[0, 0] = True  # read-only view
        with pytest.raises(ValueError):
            frame.relations[0, 0, 0] = True
        with pytest.raises(ValueError):
            frame.relation(4)  # out of range
        tables[0, 0, 0] = not tables[0, 0, 0]
        assert frame.relation(0)[0, 0] != tables[0, 0, 0]  # the frame owns a copy

    def test_from_tables_validates_shape(self):
        for shape in ((3, 2, 2), (4, 3, 3), (4, 2), (1, 0, 0), (4, 2, 3)):
            with pytest.raises(ValueError):
                ParametrizedFrame(np.zeros(shape, dtype=bool))

    def test_antitone_audit(self):
        # antitonicity is R* = R on the array
        frame = ParametrizedFrame(antitone_tables(3, random.Random(1)))
        assert np.array_equal(oracle_reach(frame), frame.relations)
        assert np.array_equal(_reach(frame), frame.relations)
        bad = ParametrizedFrame(non_antitone_tables())
        assert not np.array_equal(oracle_reach(bad), bad.relations)
        assert np.array_equal(_reach(bad), oracle_reach(bad))

    @pytest.mark.parametrize("seed", range(8))
    def test_naive_covering_matches_oracle(self, seed):
        rng = random.Random(seed)
        frame = ParametrizedFrame(random_relation_tables(rng.randint(1, 3), rng))
        assert np.array_equal(_reach(frame), oracle_reach(frame))
        assert_covering_matches_oracle(frame)

    @pytest.mark.parametrize("seed", range(8))
    def test_antitone_shortcut_equals_naive(self, seed):
        # on antitone frames the quantifier over supersets of d collapses
        # to R(d) itself
        w = 3
        frame = ParametrizedFrame(antitone_tables(w, random.Random(seed)))
        assert np.array_equal(oracle_reach(frame), frame.relations)
        assert_covering_matches_oracle(frame)
        table = covering_table(frame, range(1 << w))
        for a in range(1 << w):
            for b in range(1 << w):
                for d in range(1 << w):
                    shortcut = not any(
                        frame.relation(d)[s, t]
                        for s in range(w)
                        for t in range(w)
                        if a >> s & 1 and b >> t & 1
                    )
                    assert table[a, b, d] == shortcut

    def test_non_antitone_frame_gets_the_literal_covering(self):
        # R({}) is empty, so the shortcut would cover everything by {}; the
        # literal covering sees R({0}) above it
        frame = ParametrizedFrame(non_antitone_tables())
        assert_covering_matches_oracle(frame)
        assert not covering_table(frame, range(4))[1, 1, 0]

    def test_empty_sides_always_covered(self):
        frame = ParametrizedFrame(np.ones((4, 2, 2), dtype=bool))
        table = covering_table(frame, range(4))
        assert table[0, 3, 0] and table[3, 0, 0]
        assert not table[1, 2, 3]


# ---------------------------------------------------------------------------
# equivalence frames


class TestEquivalenceFrames:
    def test_r_class(self):
        frame = EquivalenceFrame1(4, (0, 0, 1, 1))
        assert frame.r_class(0) == 0b0011
        assert frame.r_class(2) == 0b1100
        assert frame.distinct_class_masks == (0b0011, 0b1100)

    def test_r1r2_frozen_case(self):
        # three worlds; first partition {0,1}|{2}, second {0}|{1,2}:
        # the composite class of world 2 reaches every world
        frame = EquivalenceFrame2(3, (0, 0, 1), (1, 0, 0))
        assert frame.distinct_composite_masks == (0b011, 0b111)

    @pytest.mark.parametrize("seed", range(10))
    def test_r1r2_matches_oracle(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, 6)
        c1, c2 = random_classes(w, rng), random_classes(w, rng)
        frame = EquivalenceFrame2(w, c1, c2)
        expected = {oracles.naive_r1r2(c1, c2, s) for s in range(w)}
        assert set(frame.distinct_composite_masks) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_frame1_covering_matches_oracle(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, 5)
        classes = random_classes(w, rng)
        table = covering_table(EquivalenceFrame1(w, classes), range(1 << w))
        for a in range(1 << w):
            for b in range(1 << w):
                for d in range(1 << w):
                    assert table[a, b, d] == oracles.naive_frame1_covering(classes, a, b, d)

    @pytest.mark.parametrize("seed", range(10))
    def test_frame2_covering_matches_oracle(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, 5)
        c1, c2 = random_classes(w, rng), random_classes(w, rng)
        table = covering_table(EquivalenceFrame2(w, c1, c2), range(1 << w))
        for a in range(1 << w):
            for b in range(1 << w):
                for d in range(1 << w):
                    assert table[a, b, d] == oracles.naive_frame2_covering(c1, c2, a, b, d)

    @pytest.mark.parametrize("seed", range(12))
    def test_frame2_connectedness_matches_split_enumeration(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, 5)
        c1, c2 = random_classes(w, rng), random_classes(w, rng)
        frame = EquivalenceFrame2(w, c1, c2)
        for s_mask in range(1 << w):
            expected = oracles.naive_frame2_internally_connected(c1, c2, s_mask)
            assert frame2_internally_connected(frame, s_mask) == expected

    def test_identity_second_partition_collapses_to_frame1(self):
        rng = random.Random(5)
        for _ in range(6):
            w = rng.randint(1, 5)
            classes = random_classes(w, rng)
            f1 = EquivalenceFrame1(w, classes)
            f2 = EquivalenceFrame2(w, classes, tuple(range(w)))
            masks = range(1 << w)
            assert np.array_equal(covering_table(f1, masks), covering_table(f2, masks))

    def test_validation(self):
        with pytest.raises(ValueError):
            EquivalenceFrame1(0, ())
        with pytest.raises(ValueError):
            EquivalenceFrame1(2, (0,))
        with pytest.raises(ValueError):
            EquivalenceFrame2(2, (0, 0), (0,))


# ---------------------------------------------------------------------------
# powerset algebras of frames


class TestPowersetEca:
    @pytest.mark.parametrize("seed", range(6))
    def test_frame1_table_matches_covering(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, 4)
        classes = random_classes(w, rng)
        fa = powerset_eca(EquivalenceFrame1(w, classes), verify=False)
        assert fa.eca.strength == "ECA"
        cov = fa.covering
        for a in range(1 << w):
            for b in range(1 << w):
                for d in range(1 << w):
                    assert cov.holds(a, b, d) == oracles.naive_frame1_covering(classes, a, b, d)
        assert check_eca(cov, cap_elements=1 << w).all_passed

    @pytest.mark.parametrize("seed", range(6))
    def test_frame2_table_matches_covering(self, seed):
        rng = random.Random(seed)
        w = rng.randint(1, 4)
        c1, c2 = random_classes(w, rng), random_classes(w, rng)
        fa = powerset_eca(EquivalenceFrame2(w, c1, c2), verify=False)
        assert fa.eca.strength == "ECA"
        cov = fa.covering
        for a in range(1 << w):
            for b in range(1 << w):
                for d in range(1 << w):
                    assert cov.holds(a, b, d) == oracles.naive_frame2_covering(c1, c2, a, b, d)
        assert check_eca(cov, cap_elements=1 << w).all_passed

    @pytest.mark.parametrize("seed", range(6))
    def test_parametrized_table_matches_naive_covering(self, seed):
        # random frames, most of them not antitone
        rng = random.Random(seed)
        w = rng.randint(1, 3)
        frame = ParametrizedFrame(random_relation_tables(w, rng))
        fa = powerset_eca(frame, verify=False)
        assert fa.eca.strength == "WECA"
        cov = fa.covering
        for a in range(1 << w):
            for b in range(1 << w):
                for d in range(1 << w):
                    assert cov.holds(a, b, d) == oracles.naive_pframe_covering(
                        w, frame.relation, a, b, d
                    )

    def test_parametrized_powerset_is_weak_algebra(self):
        rng = random.Random(3)
        for tables in [antitone_tables(3, rng) for _ in range(4)] + [
            random_relation_tables(3, rng) for _ in range(4)
        ]:
            fa = powerset_eca(ParametrizedFrame(tables), verify=True)
            assert check_weca(fa.covering, cap_elements=8).all_passed

    def test_cap(self):
        frame = EquivalenceFrame1(6, (0,) * 6)
        with pytest.raises(CapExceeded):
            powerset_eca(frame)
