"""Naive reference implementations used as independent oracles.

Everything in this file is deliberately written as direct, unoptimized loops
over integer bitmasks so that the optimized library code can be checked
against it on small instances.  Nothing here imports the library.  The
per-pair ECA1 and ECA2 searches scan one (a, b) at a time with NumPy, for
tables of four to six atoms, where the five nested loops take too long.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# finite topologies


def least_topology(n: int, subbasis_masks) -> set[int]:
    """Least topology containing the subbasis, built as all unions of all
    finite intersections of subbasis members (empty intersection = X,
    empty union = empty set).  The unions are grown from the empty set by
    adding one intersection at a time until nothing new appears, so each
    union is reached once instead of once per subfamily."""
    full = (1 << n) - 1
    subs = list(subbasis_masks)
    intersections = set()
    for r in range(len(subs) + 1):
        for combo in combinations(range(len(subs)), r):
            inter = full
            for i in combo:
                inter &= subs[i]
            intersections.add(inter)
    opens = {0}
    fresh = {0}
    while fresh:
        fresh = {u | v for u in fresh for v in intersections} - opens
        opens |= fresh
    opens.add(full)
    return opens


def minimal_neighbourhoods(n: int, subbasis_masks) -> list[int]:
    """U_x for each point x of the least topology: the intersection of the
    members that hold x, or the whole universe when none does."""
    full = (1 << n) - 1
    out = []
    for x in range(n):
        u = full
        for s in subbasis_masks:
            if s >> x & 1:
                u &= s
        out.append(u)
    return out


def neighbourhood_fault(neighbourhoods) -> str | None:
    """The message of the first fault that keeps a tuple of masks (U_x for
    point x) from being the minimal neighbourhoods of a topology, or None
    when it is.  The distinct U_x are visited in order of first appearance;
    each must hold its own points, and every U_y of a point y inside it."""
    points: dict[int, int] = {}
    for x, u in enumerate(neighbourhoods):
        points[u] = points.get(u, 0) | 1 << x
    for u, own in points.items():
        if own & ~u:
            x = (own & ~u).bit_length() - 1
            return f"point {x} is not in its own neighbourhood U_{x}"
        for v, inside in points.items():
            if inside & u and v & ~u:
                y = (inside & u).bit_length() - 1
                return f"point {y} is in a neighbourhood without U_{y} inside it"
    return None


def is_topology_family(n: int, family) -> bool:
    full = (1 << n) - 1
    fam = set(family)
    if 0 not in fam or full not in fam:
        return False
    for u in fam:
        for v in fam:
            if (u | v) not in fam or (u & v) not in fam:
                return False
    return True


def all_topologies(n: int) -> list[frozenset[int]]:
    """Every topology on an n-point universe, by filtering all families of
    proper nonempty subsets (plus the mandatory empty set and X).  Only
    sensible for n <= 3."""
    full = (1 << n) - 1
    proper = [m for m in range(1, full)]
    found = []
    for pick in range(1 << len(proper)):
        fam = {0, full}
        for i, m in enumerate(proper):
            if pick >> i & 1:
                fam.add(m)
        if is_topology_family(n, fam):
            found.append(frozenset(fam))
    return found


def interior_naive(opens, a: int) -> int:
    out = 0
    for u in opens:
        if u & ~a == 0:
            out |= u
    return out


def closure_naive(n: int, opens, a: int) -> int:
    """Intersection of all closed supersets (no duality shortcut)."""
    full = (1 << n) - 1
    out = full
    for u in opens:
        closed = full & ~u
        if a & ~closed == 0:
            out &= closed
    return out


def rc_meet_naive(n: int, opens, a: int, b: int) -> int:
    """Cl(Int(A ∩ B)), the meet of two regular closed sets."""
    return closure_naive(n, opens, interior_naive(opens, a & b))


def brute_force_rc(n: int, opens) -> set[int]:
    """All subsets with Cl(Int(A)) = A, scanning the whole powerset."""
    out = set()
    for a in range(1 << n):
        if closure_naive(n, opens, interior_naive(opens, a)) == a:
            out.add(a)
    return out


def connected_open_naive(opens, w: int) -> bool:
    """True iff the open set w is NOT a union of two disjoint nonempty opens."""
    for u in opens:
        for v in opens:
            if u and v and u & v == 0 and (u | v) == w:
                return False
    return True


# ---------------------------------------------------------------------------
# axiom systems, naive loops (V and C are indexable tables over 0..N-1 masks)


def _le(a: int, b: int) -> bool:
    return a & ~b == 0


def naive_check_ca(N: int, C) -> dict[str, tuple | None]:
    """CA1..CA5 over all tuples; value = first (lex) witness or None."""
    out: dict[str, tuple | None] = {f"CA{i}": None for i in range(1, 6)}
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for e in range(N):
                    if C[a][b] and _le(a, d) and _le(b, e) and not C[d][e]:
                        if out["CA1"] is None:
                            out["CA1"] = (a, b, d, e)
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for e in range(N):
                    if C[a | d][b | e] and not (C[a][b] or C[a][e] or C[d][b] or C[d][e]):
                        if out["CA2"] is None:
                            out["CA2"] = (a, b, d, e)
    for a in range(N):
        for b in range(N):
            if C[a][b] and (a == 0 or b == 0):
                if out["CA3"] is None:
                    out["CA3"] = (a, b)
    for a in range(1, N):
        if not C[a][a]:
            if out["CA4"] is None:
                out["CA4"] = (a,)
    for a in range(N):
        for b in range(N):
            if C[a][b] and not C[b][a]:
                if out["CA5"] is None:
                    out["CA5"] = (a, b)
    return out


def naive_check_eca(N: int, V) -> dict[str, tuple | None]:
    out: dict[str, tuple | None] = {f"ECA{i}": None for i in range(1, 6)}
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for e in range(N):
                    for f in range(N):
                        if V[a][b][f] and not V[a | d][b | e][d | e | f]:
                            if out["ECA1"] is None:
                                out["ECA1"] = (a, b, d, e, f)
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for e in range(N):
                    for f in range(N):
                        if V[a][b][d] and V[a][b][e] and V[d][e][f] and not V[a][b][f]:
                            if out["ECA2"] is None:
                                out["ECA2"] = (a, b, d, e, f)
    for a in range(N):
        for b in range(N):
            for f in range(N):
                if (_le(a, f) or _le(b, f)) and not V[a][b][f]:
                    if out["ECA3"] is None:
                        out["ECA3"] = (a, b, f)
                if V[a][b][f] and not _le(a & b, f):
                    if out["ECA4"] is None:
                        out["ECA4"] = (a, b, f)
                if V[a][b][f] and not V[b][a][f]:
                    if out["ECA5"] is None:
                        out["ECA5"] = (a, b, f)
    return out


def eca1_per_pair(v: np.ndarray) -> tuple | None:
    """ECA1's lex-first witness, one (a, b) at a time: all (d, e, f) of a
    covered pair are tested at once against (a|d, b|e) |- d|e|f."""
    n = len(v)
    e = np.arange(n)
    or_t = e[:, None] | e[None, :]
    def_idx = or_t[:, :, None] | e[None, None, :]  # (d, e, f) -> d|e|f
    for a in range(n):
        for b in range(n):
            grown = v[or_t[:, a][:, None, None], or_t[:, b][None, :, None], def_idx]
            viol = v[a, b][None, None, :] & ~grown
            if viol.any():
                return (a, b) + tuple(int(x) for x in np.argwhere(viol)[0])
    return None


def eca2_per_pair(v: np.ndarray) -> tuple | None:
    """ECA2's lex-first witness, one (a, b) at a time: the pair fails iff
    two of its covers d, e cover some f that it does not."""
    n = len(v)
    for a in range(n):
        for b in range(n):
            covered = np.flatnonzero(v[a, b])
            if not (v[np.ix_(covered, covered)].any(axis=(0, 1)) & ~v[a, b]).any():
                continue
            for d in covered:
                for e in covered:
                    fs = np.flatnonzero(v[d, e] & ~v[a, b])
                    if len(fs):
                        return (a, b, int(d), int(e), int(fs[0]))
    return None


def naive_check_weca(N: int, V) -> dict[str, tuple | None]:
    out: dict[str, tuple | None] = {f"WECA{i}": None for i in range(1, 5)}
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for e in range(N):
                    for f in range(N):
                        if _le(a, d) and _le(b, e) and V[d][e][f] and not V[a][b][f]:
                            if out["WECA1"] is None:
                                out["WECA1"] = (a, b, d, e, f)
    for a in range(N):
        for b in range(N):
            for f in range(N):
                if (a == 0 or b == 0) and not V[a][b][f]:
                    if out["WECA2"] is None:
                        out["WECA2"] = (a, b, f)
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for e in range(N):
                    for f in range(N):
                        if V[a][b][f] and V[d][e][f]:
                            if not (V[a & d][b | e][f] and V[a | d][b & e][f]):
                                if out["WECA3"] is None:
                                    out["WECA3"] = (a, b, d, e, f)
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for f in range(N):
                    if V[a][b][d] and _le(d, f) and not V[a][b][f]:
                        if out["WECA4"] is None:
                            out["WECA4"] = (a, b, d, f)
    return out


def naive_weca_consequences(N: int, V) -> dict[str, tuple | None]:
    one = N - 1
    out: dict[str, tuple | None] = {f"CONS{i}": None for i in range(1, 7)}
    for a in range(N):
        if not V[0][one][a] and out["CONS1"] is None:
            out["CONS1"] = (a,)
        if not V[one][0][a] and out["CONS2"] is None:
            out["CONS2"] = (a,)
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for e in range(N):
                    if V[a][d][e] and V[b][d][e] and not V[a | b][d][e]:
                        if out["CONS3"] is None:
                            out["CONS3"] = (a, b, d, e)
                    if V[a][b][e] and V[a][d][e] and not V[a][b | d][e]:
                        if out["CONS4"] is None:
                            out["CONS4"] = (a, b, d, e)
                    if V[a][b][e] and _le(d, a) and not V[d][b][e]:
                        if out["CONS5"] is None:
                            out["CONS5"] = (a, b, d, e)
                    if V[a][b][e] and _le(d, b) and not V[a][d][e]:
                        if out["CONS6"] is None:
                            out["CONS6"] = (a, b, d, e)
    return out


def naive_relative_contact_laws(N: int, V) -> dict[str, tuple | None]:
    """The five laws of the relative contact relation RC(g), for every g.
    Witnesses are (g, ...) tuples."""
    out: dict[str, tuple | None] = {f"RCL{i}": None for i in range(1, 6)}

    def rc(g, a, b):
        return not V[a][b][g]

    for g in range(N):
        for a in range(N):
            for b in range(N):
                for d in range(N):
                    for e in range(N):
                        if rc(g, a, b) and _le(a, d) and _le(b, e) and not rc(g, d, e):
                            if out["RCL1"] is None:
                                out["RCL1"] = (g, a, b, d, e)
                        if rc(g, a | d, b | e) and not (
                            rc(g, a, b) or rc(g, a, e) or rc(g, d, b) or rc(g, d, e)
                        ):
                            if out["RCL2"] is None:
                                out["RCL2"] = (g, a, b, d, e)
        for a in range(N):
            for b in range(N):
                if rc(g, a, b) and (_le(a, g) or _le(b, g)):
                    if out["RCL3"] is None:
                        out["RCL3"] = (g, a, b)
                if rc(g, a, b) and not rc(g, b, a):
                    if out["RCL5"] is None:
                        out["RCL5"] = (g, a, b)
            if not _le(a, g) and not rc(g, a, a):
                if out["RCL4"] is None:
                    out["RCL4"] = (g, a)
    return out


def naive_covering_of_signatures(N: int, family) -> list:
    """V[a][b][c]: no atom set in the family meets a and b and misses c."""
    return [
        [[not any(s & a and s & b and not s & c for s in family) for c in range(N)] for b in range(N)]
        for a in range(N)
    ]


def naive_signatures(N: int, V) -> tuple[int, ...]:
    """S*: the nonempty atom sets σ such that no covered (a, b, c) has σ
    meeting a and b and missing c, ascending."""
    return tuple(
        s
        for s in range(1, N)
        if not any(
            V[a][b][c] and s & a and s & b and not s & c
            for a in range(N)
            for b in range(N)
            for c in range(N)
        )
    )


def naive_signature_closure(k: int, family) -> tuple[int, ...]:
    """The closure of a family of atom sets, ascending: the nonempty σ such
    that each pair of atoms of σ (one atom twice allowed) lies in some
    member inside σ.  It is S* of the family's covering."""
    return tuple(
        s
        for s in range(1, 1 << k)
        if all(
            any(t & ~s == 0 and t >> p & 1 and t >> q & 1 for t in family)
            for p in range(k)
            if s >> p & 1
            for q in range(k)
            if s >> q & 1
        )
    )


def naive_covering_of_slices(N: int, k: int, slices) -> list:
    """V[a][b][f]: slices[f][p][q] for every atom p in a and q in b."""
    return [
        [
            [
                all(slices[f][p][q] for p in range(k) if a >> p & 1 for q in range(k) if b >> q & 1)
                for f in range(N)
            ]
            for b in range(N)
        ]
        for a in range(N)
    ]


def naive_internally_connected(N: int, V, a: int) -> bool:
    full = N - 1
    for b in range(1, N):
        for d in range(1, N):
            if (b | d) == a and V[b][d][full & ~a]:
                return False
    return True


# ---------------------------------------------------------------------------
# filters and ideals


def is_filter(N: int, members) -> bool:
    mem = set(members)
    if not mem:
        return False
    for x in mem:
        for y in range(N):
            if _le(x, y) and y not in mem:
                return False
    for x in mem:
        for y in mem:
            if (x & y) not in mem:
                return False
    return True


def is_ideal(N: int, members) -> bool:
    mem = set(members)
    if not mem:
        return False
    for x in mem:
        for y in range(N):
            if _le(y, x) and y not in mem:
                return False
    for x in mem:
        for y in mem:
            if (x | y) not in mem:
                return False
    return True


def all_filters(N: int) -> list[frozenset[int]]:
    """Every filter (improper included) of the Boolean algebra with N=2^k
    elements: exactly the principal up-sets."""
    out = []
    for g in range(N):
        out.append(frozenset(x for x in range(N) if g & ~x == 0))
    return out


# ---------------------------------------------------------------------------
# frames


def submasks(m: int):
    """All submasks of m, ascending."""
    out = []
    s = m
    while True:
        out.append(s)
        if s == 0:
            break
        s = (s - 1) & m
    return sorted(out)


def naive_homomorphism_witnesses(img, world_count: int) -> dict[str, tuple | None]:
    """The first violating tuple, in ascending element order, of each
    homomorphism fact of an image map over the 2^k elements: one literal
    loop per fact."""
    n = len(img)
    full = (1 << world_count) - 1
    inj = None
    for i in range(n):
        if inj:
            break
        for j in range(i + 1, n):
            if img[i] == img[j]:
                inj = (i, j)
                break
    zero = None if img[0] == 0 else (0,)
    comp = None
    for a in range(n):
        if img[(n - 1) & ~a] != full & ~img[a]:
            comp = (a,)
            break
    join = None
    for a in range(n):
        if join:
            break
        for b in range(n):
            if img[a | b] != img[a] | img[b]:
                join = (a, b)
                break
    return {
        "injective": inj,
        "preserves-zero": zero,
        "preserves-complement": comp,
        "preserves-join": join,
    }


def naive_pframe_covering(world_count: int, relation_of, a: int, b: int, d: int) -> bool:
    """Literal evaluation: for all supersets U of d and all s in a, t in b,
    not R(U)(s,t)."""
    full = (1 << world_count) - 1
    for u in range(full + 1):
        if d & ~u:
            continue
        rel = relation_of(u)
        for s in range(world_count):
            if not (a >> s & 1):
                continue
            for t in range(world_count):
                if (b >> t & 1) and rel[s][t]:
                    return False
    return True


def naive_pframe_reach(world_count: int, relation_of, d: int):
    """R*(d): the union of R(U) over every superset U of d.  A frame is
    antitone (R shrinks as U grows) iff R*(d) = R(d) for every d."""
    reach = [[False] * world_count for _ in range(world_count)]
    for u in range(1 << world_count):
        if d & ~u:
            continue
        rel = relation_of(u)
        for s in range(world_count):
            for t in range(world_count):
                if rel[s][t]:
                    reach[s][t] = True
    return reach


def pframe_relation_closed_form(N: int, V, atom_count: int, u_mask: int):
    """Independent closed form for the canonical frame relation over the
    maximal filters of a finite Boolean algebra (world i = up-set of atom i):
    R(U)(s,t) iff there is no (a,b,d) with atom_s <= a, atom_t <= b,
    (a,b) |- d and d <= join of U's atoms."""
    ujoin = 0
    for i in range(atom_count):
        if u_mask >> i & 1:
            ujoin |= 1 << i
    rel = [[True] * atom_count for _ in range(atom_count)]
    for s in range(atom_count):
        for t in range(atom_count):
            for a in range(N):
                if not _le(1 << s, a):
                    continue
                for b in range(N):
                    if not _le(1 << t, b):
                        continue
                    for d in range(N):
                        if V[a][b][d] and _le(d, ujoin):
                            rel[s][t] = False
    return rel


def naive_frame1_covering(classes, a: int, b: int, d: int) -> bool:
    n = len(classes)
    if a & b & ~d:
        return False
    for s in range(n):
        cls = 0
        for t in range(n):
            if classes[t] == classes[s]:
                cls |= 1 << t
        if (cls & a) and (cls & b) and not (cls & d):
            return False
    return True


def naive_r1r2(classes1, classes2, s: int) -> int:
    n = len(classes1)
    out = 0
    for t in range(n):
        if classes2[t] == classes2[s]:
            for w in range(n):
                if classes1[w] == classes1[t]:
                    out |= 1 << w
    return out


def naive_frame2_covering(classes1, classes2, a: int, b: int, d: int) -> bool:
    n = len(classes1)
    if a & b & ~d:
        return False
    for s in range(n):
        cls = naive_r1r2(classes1, classes2, s)
        if (cls & a) and (cls & b) and not (cls & d):
            return False
    return True


def naive_frame2_internally_connected(classes1, classes2, s_mask: int) -> bool:
    """Literal split quantification: no pair of nonempty B, D with
    B union D = S and (B, D) |-_W complement(S)."""
    n = len(classes1)
    full = (1 << n) - 1
    for b in submasks(s_mask):
        rest = s_mask & ~b
        for extra in submasks(b):
            d = rest | extra
            if b and d and (b | d) == s_mask:
                if naive_frame2_covering(classes1, classes2, b, d, full & ~s_mask):
                    return False
    return True


def naive_gv_contact(relation, a: int, b: int) -> bool:
    n = len(relation)
    for s in range(n):
        for t in range(n):
            if (a >> s & 1) and (b >> t & 1) and relation[s][t]:
                return True
    return False
