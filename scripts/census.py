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
the images with the source's table.  Every distinct table that passes the
extended axioms is the covering of its own S*, read off it by signatures,
whose members are the points of a model: its type-1 and type-2 frames
are built on them and must pass every check of verify_embedding,
internal connectedness included for type 2, with equal reports whether
the source is the covering of the generating family, of S* (on which the
family gate decides covering) or of the table, and its derived contact, held
as a relation on atoms, must pass the contact axioms, generate the
complement of the cover-0 slice of the table as its own table, and give
the same verdict as the contact built from that table.  It prints, for
each k, the number of families, of distinct tables, of distinct tables
that pass the extended axioms (1, 2, 15 and 1 218), of parametrized
embeddings verified, and of extended algebras whose type-1 and type-2
embeddings and derived contact pass.
The run stops with an error on any failure, any mismatch or any other
count.
"""

from __future__ import annotations

import argparse
import time

from mereotop import (
    ContactRelation,
    CoveringRelation,
    FiniteBooleanAlgebra,
    build_parametrized_frame,
    build_type1,
    build_type2,
    check_ca,
    check_eca,
    check_weca,
    covering_from_signatures,
    derived_contact,
    signatures,
    verify_embedding,
)
from mereotop.frames import covering_family, covering_slices, covering_table

ECA_TABLES = {1: 1, 2: 2, 3: 15, 4: 1218}


def check_parametrized(covering: CoveringRelation) -> None:
    """Verify the maximal-filter embedding of a weak covering; for k <= 3,
    compare its slice verdict with the tabulated one."""
    k = covering.algebra.atom_count
    embedding = build_parametrized_frame(covering)
    report = verify_embedding(embedding)
    if not report.all_passed:
        raise SystemExit(f"k = {k}, signatures {sorted(covering._members)}: {report.failures()}")
    if k <= 3:
        img = embedding.image_masks
        on_slices = (covering_slices(embedding.frame, [img[1 << i] for i in range(k)]) == covering._slices).all()
        if on_slices != (covering_table(embedding.frame, img) == covering.table).all():
            raise SystemExit(f"k = {k}: the slice verdict {on_slices} disagrees with the tables")


def check_extended(covering: CoveringRelation) -> None:
    """Verify the type-1 and type-2 embeddings of an extended contact
    algebra over the points of S*, with three sources that must give equal
    reports: the covering of the generating family, the covering of S*
    itself, on which verify_embedding's family gate must confirm covering
    (the frame's σ family equals S*), and the covering built from the
    table, which holds no family.  Then check the contact axioms of its
    derived contact, both as held (decided on its atom relation) and as
    built from the covering's table (decided by comparing the table with
    the join-extension)."""
    k = covering.algebra.atom_count
    points = signatures(covering)
    held = covering_from_signatures(k, points)
    tabled = CoveringRelation(covering.algebra, covering.table)
    for kind, builder in (("type1", build_type1), ("type2", build_type2)):
        reports = [verify_embedding(builder(source, points)) for source in (covering, held, tabled)]
        if not reports[0].all_passed:
            raise SystemExit(f"{kind} on S* = {list(points)}: {reports[0].failures()}")
        if reports.count(reports[0]) != len(reports):
            raise SystemExit(f"{kind} on S* = {list(points)}: the reports over the three sources differ")
        embedding = builder(held, points)
        atoms = [embedding.image_masks[1 << i] for i in range(k)]
        if covering_family(embedding.frame, atoms) != held._members:
            raise SystemExit(f"{kind} on S* = {list(points)}: the frame's σ family is not S*")
    contact = derived_contact(covering)
    report = check_ca(contact)
    if not report.all_passed:
        raise SystemExit(f"derived contact of S* = {list(points)}: {report.failures()}")
    table = ~covering.table[:, :, 0]
    if not (contact.table == table).all():
        raise SystemExit(f"derived contact of S* = {list(points)}: its generated table is not the covering's")
    report = check_ca(ContactRelation(covering.algebra, table))
    if not report.all_passed:
        raise SystemExit(f"table-built contact of S* = {list(points)}: {report.failures()}")


def census(k: int) -> tuple[int, int, int, int, int]:
    """(families, distinct tables, distinct tables passing the extended
    axioms, parametrized embeddings verified, extended algebras whose
    type-1 and type-2 embeddings and derived contact passed) for k atoms,
    after checking every family's verdict and the embeddings of every
    distinct table."""
    n = 1 << k
    verdicts: dict[bytes, str] = {}  # slices -> the table-built verdict
    embedded = extended = 0
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
            if full:
                check_extended(covering)
                extended += 1
        if covering._strength != verdicts[key]:
            raise SystemExit(f"k = {k}, family {family}: verdict {covering._strength}, tables say {verdicts[key]}")
    return 1 << (n - 1), len(verdicts), sum(v == "ECA" for v in verdicts.values()), embedded, extended


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for k, expected in ECA_TABLES.items():
        start = time.perf_counter()
        families, tables, ecas, embedded, extended = census(k)
        print(f"k = {k}: {families} families, {tables} distinct tables, {ecas} pass the extended axioms,"
              f" {embedded} parametrized embeddings verified, {extended} type-1, type-2 and derived-contact"
              f" checks passed ({time.perf_counter() - start:.1f} s)")
        if ecas != expected or extended != expected:
            raise SystemExit(f"k = {k}: expected {expected} extended algebras, counted {ecas}, checked {extended}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
