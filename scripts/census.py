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
once.  Every distinct table is weak, so each one also goes through the
parametrized pipeline: its maximal-filter frame must pass every check of
verify_embedding, which confirms covering on atom slices; for k <= 3 the
slice verdict must also equal comparing the frame's covering table over
the images with the source's table.  It prints, for each k, the number
of families, of distinct tables, of distinct tables that pass the
extended axioms (1, 2, 15 and 1 218), and of embeddings verified.  The
run stops with an error on any mismatch or any other count.
"""

from __future__ import annotations

import argparse
import time

from mereotop import (
    CoveringRelation,
    FiniteBooleanAlgebra,
    build_parametrized_frame,
    check_eca,
    check_weca,
    covering_from_signatures,
    verify_embedding,
)
from mereotop.frames import covering_slices, covering_table

ECA_TABLES = {1: 1, 2: 2, 3: 15, 4: 1218}


def check_parametrized(covering: CoveringRelation) -> None:
    """Verify the maximal-filter embedding of a weak covering; for k <= 3,
    compare its slice verdict with the tabulated one."""
    k = covering.algebra.atom_count
    embedding = build_parametrized_frame(covering)
    report = verify_embedding(embedding)
    if not report.all_passed:
        raise SystemExit(f"k = {k}, signatures {covering._family.nonzero()[0].tolist()}: {report.failures()}")
    if k <= 3:
        img = embedding.image_masks
        on_slices = (covering_slices(embedding.frame, [img[1 << i] for i in range(k)]) == covering._slices).all()
        if on_slices != (covering_table(embedding.frame, img) == covering.table).all():
            raise SystemExit(f"k = {k}: the slice verdict {on_slices} disagrees with the tables")


def census(k: int) -> tuple[int, int, int, int]:
    """(families, distinct tables, distinct tables passing the extended
    axioms, parametrized embeddings verified) for k atoms, after checking
    every family's verdict and the embedding of every distinct table."""
    n = 1 << k
    verdicts: dict[bytes, str] = {}  # slices -> the table-built verdict
    embedded = 0
    for bits in range(1 << (n - 1)):
        family = [s for s in range(1, n) if bits >> (s - 1) & 1]
        covering = covering_from_signatures(k, family)
        key = covering._slices.tobytes()
        if key not in verdicts:
            tabled = CoveringRelation(FiniteBooleanAlgebra(k), covering.table)
            weak, full = check_weca(tabled).all_passed, check_eca(tabled).all_passed
            verdicts[key] = "ECA" if full else "WECA" if weak else "none"
            check_parametrized(covering)
            embedded += 1
        if covering._strength != verdicts[key]:
            raise SystemExit(f"k = {k}, family {family}: verdict {covering._strength}, tables say {verdicts[key]}")
    return 1 << (n - 1), len(verdicts), sum(v == "ECA" for v in verdicts.values()), embedded


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for k, expected in ECA_TABLES.items():
        start = time.perf_counter()
        families, tables, ecas, embedded = census(k)
        print(f"k = {k}: {families} families, {tables} distinct tables, {ecas} pass the extended axioms,"
              f" {embedded} parametrized embeddings verified ({time.perf_counter() - start:.1f} s)")
        if ecas != expected:
            raise SystemExit(f"k = {k}: expected {expected} extended contact algebras, counted {ecas}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
