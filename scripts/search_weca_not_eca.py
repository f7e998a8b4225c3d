#!/usr/bin/env python3
"""Search for weak extended contact algebras that are not full ones.

The one-atom algebra admits only 256 covering tables, so that case is
exhausted outright.  The two-atom case has 2^64 tables, so it enumerates the
weak ones directly: a table satisfies the weak axioms iff it is generated by
atom slices R_f that grow with f, (a, b) |- f iff R_f(p, q) for all atoms
p <= a and q <= b.  Such a family picks, for each of the four atom pairs,
the up-set of covers f whose slice holds the pair: 6^4 = 1296 families.
Both searches report how many tables satisfy the weak axioms, how many of
those satisfy the full axioms, and the first separating example found; the
run stops with an error if an enumerated table fails the weak axioms.

A hand-built separating table is also checked: covering exactly the triples
with a zero on the left, i.e. (a, b) |- f iff a = 0 or b = 0.  It satisfies
every weak axiom and fails ECA1 and ECA3.
"""

from __future__ import annotations

import argparse
from itertools import product

import numpy as np

from mereotop import CoveringRelation, FiniteBooleanAlgebra, check_eca, check_weca, covering_from_slices


def table_from_bits(n: int, bits: int) -> np.ndarray:
    flat = np.array([bits >> i & 1 for i in range(n**3)], dtype=bool)
    return flat.reshape(n, n, n)


def zero_sided_covering(atom_count: int) -> CoveringRelation:
    """(a, b) |- f iff a = 0 or b = 0 — weak but not full."""
    n = 1 << atom_count
    table = np.zeros((n, n, n), dtype=bool)
    table[0, :, :] = True
    table[:, 0, :] = True
    return CoveringRelation(FiniteBooleanAlgebra(atom_count), table)


def classify(covering: CoveringRelation):
    weca = check_weca(covering)
    if not weca.all_passed:
        return "not-weak", None
    eca = check_eca(covering)
    if eca.all_passed:
        return "full", None
    return "weak-only", eca.failures()


def exhaust_one_atom():
    algebra = FiniteBooleanAlgebra(1)
    counts = {"not-weak": 0, "full": 0, "weak-only": 0}
    first = None
    for bits in range(1 << 8):
        covering = CoveringRelation(algebra, table_from_bits(2, bits))
        verdict, failures = classify(covering)
        counts[verdict] += 1
        if verdict == "weak-only" and first is None:
            first = (covering, failures)
    return counts, first


def enumerate_two_atoms():
    n = 4
    # up-sets of covers, as 4-bit masks over f = 0..3
    up_sets = [
        m for m in range(1 << n)
        if all(m >> g & 1 for f in range(n) if m >> f & 1 for g in range(n) if f & ~g == 0)
    ]
    counts = {"not-weak": 0, "full": 0, "weak-only": 0}
    first = None
    covers = np.arange(n)
    for family in product(up_sets, repeat=4):  # the cover up-set of atom pair (p, q) at 2p + q
        slices = (np.array(family)[:, None] >> covers & 1).astype(bool)  # [2p + q, f]
        covering = covering_from_slices(2, slices.T.reshape(n, 2, 2))
        verdict, failures = classify(covering)
        if verdict == "not-weak":
            raise SystemExit(f"an enumerated two-atom table fails the weak axioms: {covering.true_triples()}")
        counts[verdict] += 1
        if verdict == "weak-only" and first is None:
            first = (covering, failures)
    return counts, first


def describe(tag: str, counts: dict, found) -> None:
    total = sum(counts.values())
    print(
        f"{tag}: {total} tables -> {counts['not-weak']} fail the weak axioms, "
        f"{counts['full']} satisfy the full axioms, "
        f"{counts['weak-only']} are weak-only"
    )
    if found is not None:
        covering, failures = found
        failing = ", ".join(f"{r.name} at {r.witness}" for r in failures)
        print(f"  first weak-only table: triples {covering.true_triples()}")
        print(f"  full-axiom failures: {failing}")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    fixed = zero_sided_covering(1)
    verdict, failures = classify(fixed)
    if verdict != "weak-only":
        raise SystemExit(f"the zero-sided table should be weak-only, got {verdict}")
    describe("hand-built zero-sided table (one atom)", {verdict: 1, "not-weak": 0, "full": 0}, (fixed, failures))

    counts, found = exhaust_one_atom()
    describe("one atom, exhaustive", counts, found)

    counts, found = enumerate_two_atoms()
    describe("two atoms, every weak table (monotone atom slices)", counts, found)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
