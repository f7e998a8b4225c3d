#!/usr/bin/env python3
"""Census of the covering tables with k = 1..4 atoms.

It goes through every table with one atom, every weak table with two, and
the coverings of every family of atom sets.  A table passes the weak axioms
iff its atom slices R_f grow with f and generate it (see
covering_from_slices), so a weak two-atom table is one up-set of covers per
atom pair: 6^4 = 1296 tables.  The verdict check_eca and check_weca give
each of these tables must equal the one it decides by its own path, and
each weak one's maximal-filter embedding is verified as below.  It prints
the counts (for k = 1, 253 fail the weak axioms, 1 passes the extended ones
and 2 are weak-only; for k = 2, 2 pass the extended axioms and 1294 are
weak-only) and the first weak-only table with its failures: for k = 1 the
zero-sided table, (a, b) |- d iff a = 0 or b = 0, which fails ECA1 and
ECA3.

For k atoms there are 2^(2^k - 1) families of nonempty atom sets.  The
covering built from a family holds the family and its atom slices, and its
verdict comes from them without a table: the covering of any family passes
the weak axioms, and it passes the extended ones iff every single atom is
in the family's closure.  The census checks that verdict on every family
against check_eca and check_weca run on the family's table, wrapped as a
covering built from a table, which decides by its own path.  Families with
the same closure have the same table, so each distinct table is checked
once; for k <= 2 each must be among the weak tables enumerated above.
Every distinct table is weak, so each one also goes through the
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
from collections import Counter
from collections.abc import Iterator
from itertools import product

import numpy as np

from mereotop import (
    AxiomReport,
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
    covering_from_slices,
    derived_contact,
    signatures,
    verify_embedding,
)
from mereotop.frames import covering_family, covering_slices, covering_table

ECA_TABLES = {1: 1, 2: 2, 3: 15, 4: 1218}
WEAK_TABLES = {1: (253, 1, 2), 2: (0, 2, 1294)}  # tables failing the weak axioms, passing the extended, weak-only
ZERO_SIDED = [(a, b, d) for a in range(2) for b in range(2) for d in range(2) if a == 0 or b == 0]


def verdict(covering: CoveringRelation) -> tuple[str | None, AxiomReport]:
    """The verdict check_eca and check_weca give a covering: "ECA", else
    "WECA", or None; and the check_eca report."""
    eca = check_eca(covering)
    return "ECA" if eca.all_passed else "WECA" if check_weca(covering).all_passed else None, eca


def check_parametrized(covering: CoveringRelation) -> None:
    """Verify the maximal-filter embedding of a weak covering; for k <= 3,
    compare its slice verdict with the tabulated one.  An error names the
    table by its true atom slices (f, p, q)."""
    k = covering.algebra.atom_count
    embedding = build_parametrized_frame(covering)
    report = verify_embedding(embedding)
    if not report.all_passed:
        raise SystemExit(f"k = {k}, slices {np.argwhere(covering._slices).tolist()}: {report.failures()}")
    if k <= 3:
        img = embedding.image_masks
        on_slices = (covering_slices(embedding.frame, [img[1 << i] for i in range(k)]) == covering._slices).all()
        if on_slices != (covering_table(embedding.frame, img) == covering.table).all():
            raise SystemExit(
                f"k = {k}, slices {np.argwhere(covering._slices).tolist()}: the slice verdict {on_slices}"
                " disagrees with the tables"
            )


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


def tables(k: int) -> Iterator[CoveringRelation]:
    """Coverings built from tables: for k = 1 every table, for k = 2 every
    weak one, from one up-set of covers per atom pair."""
    n = 1 << k
    if k == 1:
        for bits in range(1 << n**3):
            table = np.array([bits >> i & 1 for i in range(n**3)], dtype=bool).reshape(n, n, n)
            yield CoveringRelation(FiniteBooleanAlgebra(k), table)
        return
    up_sets = [m for m in range(1 << n) if all(m >> (f | g) & 1 for f in range(n) if m >> f & 1 for g in range(n))]
    covers = np.arange(n)
    for family in product(up_sets, repeat=k * k):  # the up-set of atom pair (p, q) at k p + q
        slices = np.array(family)[:, None] >> covers & 1  # [k p + q, f]
        yield covering_from_slices(k, slices.T.reshape(n, k, k).astype(bool))


def table_census(k: int) -> set[bytes]:
    """Check the verdict of every table of :func:`tables` and verify the
    maximal-filter embedding of every weak one; print the counts and the
    first weak-only table, and return the atom slices of the weak tables."""
    start = time.perf_counter()
    counts: Counter[str | None] = Counter()
    weak: set[bytes] = set()
    first = None
    for covering in tables(k):
        found, eca = verdict(covering)
        if covering._strength != found:
            raise SystemExit(
                f"k = {k}, triples {covering.true_triples()}: verdict {covering._strength}, checkers say {found}"
            )
        counts[found] += 1
        if found is not None:
            check_parametrized(covering)
            weak.add(covering._slices.tobytes())
        if found == "WECA" and first is None:
            first = covering, eca.failures()
    print(f"k = {k}, every{' weak' if k > 1 else ''} table: {sum(counts.values())} tables, {counts[None]} fail the weak"
          f" axioms, {counts['ECA']} pass the extended axioms, {counts['WECA']} are weak-only, {len(weak)}"
          f" parametrized embeddings verified ({time.perf_counter() - start:.1f} s)")
    if (counts[None], counts["ECA"], counts["WECA"]) != WEAK_TABLES[k] or len(weak) != counts["ECA"] + counts["WECA"]:
        raise SystemExit(f"k = {k}: expected {WEAK_TABLES[k]} tables failing, passing and weak-only, counted {counts}")
    covering, failures = first
    print(f"  first weak-only table: triples {covering.true_triples()}")
    print(f"  extended-axiom failures: {', '.join(f'{r.name} at {r.witness}' for r in failures)}")
    if k == 1 and covering.true_triples() != ZERO_SIDED:
        raise SystemExit("k = 1: the first weak-only table is not the zero-sided one")
    return weak


def census(k: int) -> tuple[int, dict[bytes, str | None], int, int]:
    """(families, the verdict of each distinct table by its atom slices,
    parametrized embeddings verified, extended algebras whose type-1 and
    type-2 embeddings and derived contact passed) for k atoms, after
    checking every family's verdict and the embeddings of every distinct
    table."""
    n = 1 << k
    verdicts: dict[bytes, str | None] = {}  # slices -> the table-built verdict
    embedded = extended = 0
    for bits in range(1 << (n - 1)):
        family = [s for s in range(1, n) if bits >> (s - 1) & 1]
        covering = covering_from_signatures(k, family)
        key = covering._slices.tobytes()
        if key not in verdicts:
            verdicts[key] = verdict(CoveringRelation(FiniteBooleanAlgebra(k), covering.table))[0]
            check_parametrized(covering)
            embedded += 1
            if verdicts[key] == "ECA":
                check_extended(covering)
                extended += 1
        if covering._strength != verdicts[key]:
            raise SystemExit(f"k = {k}, family {family}: verdict {covering._strength}, tables say {verdicts[key]}")
    return 1 << (n - 1), verdicts, embedded, extended


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for k, expected in ECA_TABLES.items():
        weak = table_census(k) if k in WEAK_TABLES else None
        start = time.perf_counter()
        families, verdicts, embedded, extended = census(k)
        ecas = sum(v == "ECA" for v in verdicts.values())
        print(f"k = {k}: {families} families, {len(verdicts)} distinct tables, {ecas} pass the extended axioms,"
              f" {embedded} parametrized embeddings verified, {extended} type-1, type-2 and derived-contact"
              f" checks passed ({time.perf_counter() - start:.1f} s)")
        if ecas != expected or extended != expected:
            raise SystemExit(f"k = {k}: expected {expected} extended algebras, counted {ecas}, checked {extended}")
        if weak is not None and not verdicts.keys() <= weak:
            raise SystemExit(f"k = {k}: a family's table is not among the enumerated weak tables")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
