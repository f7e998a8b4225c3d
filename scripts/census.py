#!/usr/bin/env python3
"""Census of the coverings of every family of atom sets, k = 1..4 atoms.

For k atoms there are 2^(2^k - 1) families of nonempty atom sets.  The
covering built from a family holds the family and its atom slices, and its
verdict comes from them without a table: the covering of any family passes
the weak axioms, and it passes the extended ones iff every single atom is
in the family's closure.  The census checks that verdict on every family
against check_eca and check_weca run on the family's table, wrapped as a
covering built from a table, which decides by its own path.  Families with
the same closure have the same table, so each distinct table is checked
once.  It prints, for each k, the number of families, of distinct tables,
and of distinct tables that pass the extended axioms: 1, 2, 15 and 1 218.
The run stops with an error on any mismatch or any other count.
"""

from __future__ import annotations

import argparse
import time

from mereotop import CoveringRelation, FiniteBooleanAlgebra, check_eca, check_weca, covering_from_signatures

ECA_TABLES = {1: 1, 2: 2, 3: 15, 4: 1218}


def census(k: int) -> tuple[int, int, int]:
    """(families, distinct tables, distinct tables passing the extended
    axioms) for k atoms, after checking every family's verdict."""
    n = 1 << k
    verdicts: dict[bytes, str] = {}  # slices -> the table-built verdict
    for bits in range(1 << (n - 1)):
        family = [s for s in range(1, n) if bits >> (s - 1) & 1]
        covering = covering_from_signatures(k, family)
        key = covering._slices.tobytes()
        if key not in verdicts:
            tabled = CoveringRelation(FiniteBooleanAlgebra(k), covering.table)
            weak, full = check_weca(tabled).all_passed, check_eca(tabled).all_passed
            verdicts[key] = "ECA" if full else "WECA" if weak else "none"
        if covering._strength != verdicts[key]:
            raise SystemExit(f"k = {k}, family {family}: verdict {covering._strength}, tables say {verdicts[key]}")
    return 1 << (n - 1), len(verdicts), sum(v == "ECA" for v in verdicts.values())


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for k, expected in ECA_TABLES.items():
        start = time.perf_counter()
        families, tables, ecas = census(k)
        print(f"k = {k}: {families} families, {tables} distinct tables, {ecas} pass the extended axioms"
              f" ({time.perf_counter() - start:.1f} s)")
        if ecas != expected:
            raise SystemExit(f"k = {k}: expected {expected} extended contact algebras, counted {ecas}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
