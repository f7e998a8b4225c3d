"""Seeded input generation for the mereotop benchmark.

Every workload is a list of *rounds*.  A round is a fixed list of op
classes, so every round of a workload has the same composition whatever the
seed; the seed only picks the instances (spaces, tables, label orders).  The
benchmark always runs whole rounds, which keeps the cost mix of a run, and
with it the run-to-run spread, independent of the seed.

Each op is one ``mereotop.cli.main`` argv plus what its output must show
(see ``gate.py``).  Expected verdicts come from constructions whose answer
is known without running the library: topology-derived and discrete
coverings satisfy the full axioms, the zero-sided table is weak-only, and a
flip that breaks ECA3 or ECA4 at one tuple fails the full axioms.

Run as a script, this module is one set-up: it imports mereotop and numpy,
writes the manifest and input documents of a workload into ``--out`` and
prints the SHA-256 of what it wrote.

    python3 perfbench/inputs.py --workload campaign --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = "manifest.json"

# The `random` command derives trial t of campaign seed s from
# Random(s * 1_000_003 + t) and draws the universe size, then the subbasis,
# from it.  The benchmark predicts the space of trial 0 on its own, so that
# the gate can check the echoed space and set-up can stratify campaign
# seeds by atom count and universe size.
TRIAL_SEED_STRIDE = 1_000_003
MAX_UNIVERSE = 5

# Universe sizes at and above this make `eca_from_rc` overflow its int64
# point-set bits (ROADMAP item 2(a)); such ops may raise OverflowError.
OVERFLOW_POINTS = 64


def require_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop: the benchmark
    measures the source tree it sits in, never an installed copy."""
    if not (ROOT / "src" / "mereotop" / "cli.py").is_file():
        sys.exit(f"error: no mereotop source tree at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# finite spaces, computed here without the library


def rc_atom_count(n: int, subbasis: list[int]) -> int:
    """Number of atoms of the regular closed algebra of the space a
    subbasis generates: close the subbasis under unions and intersections,
    then scan all subsets for Cl(Int(A)) = A and keep the minimal nonempty
    ones."""
    full = (1 << n) - 1
    opens = {0, full, *subbasis}
    grown = True
    while grown:
        grown = False
        for u in list(opens):
            for v in list(opens):
                for w in (u | v, u & v):
                    if w not in opens:
                        opens.add(w)
                        grown = True

    def interior(a: int) -> int:
        out = 0
        for u in opens:
            if u & ~a == 0:
                out |= u
        return out

    rc = [a for a in range(1, full + 1) if full & ~interior(full & ~interior(a)) == a]
    return sum(1 for a in rc if not any(b != a and b & ~a == 0 for b in rc))


def trial_space(seed: int) -> tuple[int, list[int]]:
    """Universe size and subbasis masks of trial 0 of `random --seed seed`."""
    rng = random.Random(seed * TRIAL_SEED_STRIDE)
    n = rng.randint(1, MAX_UNIVERSE)
    pool = [m for m in range(1 << n) if m.bit_count() <= 3]
    pool.append(rng.getrandbits(n))
    pool.append(rng.getrandbits(n))
    return n, [m for m in pool if rng.random() < 0.5]


def boundary_atoms(rng: random.Random, k: int) -> list[int]:
    """Point sets of the k regular closed atoms of a random Alexandrov space.

    Points 0..k-1 are open singletons; each extra point b has the minimal
    open neighbourhood {b} plus a random nonempty set T_b of those
    singletons.  The atoms are the closures Cl({i}) = {i} + {b : i in T_b},
    so two atoms overlap exactly on boundary points they share.
    """
    atoms = [1 << i for i in range(k)]
    for b in range(k, k + rng.randint(2, 5)):
        touched = [i for i in range(k) if rng.random() < 0.5] or [rng.randrange(k)]
        for i in touched:
            atoms[i] |= 1 << b
    return atoms


def derived_covering(atoms: list[int]) -> np.ndarray:
    """The covering (a, b) |- d iff P_a & P_b <= P_d, where P_m is the
    union of the atoms in mask m."""
    sets = np.zeros(1 << len(atoms), dtype=np.int64)
    for i, atom in enumerate(atoms):
        sets[np.arange(len(sets)) >> i & 1 == 1] |= atom
    meets = sets[:, None] & sets[None, :]
    return meets[:, :, None] & ~sets[None, None, :] == 0


def flipped_table(rng: random.Random, table: np.ndarray) -> np.ndarray:
    """A passing table with symmetric flips.  The first flip breaks ECA3
    (drop a covered pair whose side lies below the cover) or ECA4 (cover a
    pair whose meet is not below the cover), so the full axioms fail; up to
    two further flips are random."""
    n = len(table)
    out = table.copy()

    def flip(a: int, b: int, d: int) -> None:
        out[a, b, d] = out[b, a, d] = not out[a, b, d]

    while True:
        a, b, d = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if a & ~d == 0 or a & b & ~d:
            break
    flip(a, b, d)
    for _ in range(rng.randint(0, 2)):
        extra = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if extra not in ((a, b, d), (b, a, d)):
            flip(*extra)
    return out


def zero_sided_table(k: int) -> np.ndarray:
    """(a, b) |- d iff a = 0 or b = 0: weak but not full."""
    table = np.zeros((1 << k,) * 3, dtype=bool)
    table[0] = table[:, 0] = True
    return table


def covering_doc(table: np.ndarray) -> dict:
    return {"atoms": len(table).bit_length() - 1, "covering": np.argwhere(table).tolist()}


# ---------------------------------------------------------------------------
# topology documents with known open counts and atoms


def labels(rng: random.Random, count: int) -> list[str]:
    """Distinct seeded labels, so two seeds never share a document."""
    return [f"p{x}" for x in rng.sample(range(10 * count), count)]


def topology_doc(rng: random.Random, names: list[str], subbasis: list[list[str]]) -> dict:
    universe = list(names)
    rng.shuffle(universe)
    rng.shuffle(subbasis)
    return {"universe": universe, "subbasis": subbasis}


def star_space(rng: random.Random, cores: int, arms: int, long_arms: int) -> tuple[dict, dict]:
    """Core points 0..cores-1, arms dealt round-robin to the cores; each
    subbasis member is a core plus one arm of 1 point, or of 2 points for
    ``long_arms`` arms the seed picks.  An open set picks, per core,
    nothing, the bare core (two of its members meet there) or the core with
    any nonempty set of its arms; the atoms are the clusters (a core with
    its arms), so k = cores."""
    lengths = [1] * arms
    for i in rng.sample(range(arms), long_arms):
        lengths[i] = 2
    names = labels(rng, cores + sum(lengths))
    subbasis = []
    nxt = cores
    for i, length in enumerate(lengths):
        subbasis.append([names[i % cores]] + names[nxt : nxt + length])
        nxt += length
    opens = 1
    for core in range(cores):
        dealt = len(range(core, arms, cores))
        opens *= (1 << dealt) + (dealt >= 2)
    doc = topology_doc(rng, names, subbasis)
    return doc, {"points": len(names), "opens": opens, "atoms": cores}


def chain_space(rng: random.Random, points: int) -> tuple[dict, dict]:
    """Opens are the prefixes of a seeded order: points + 1 opens, and the
    whole space is the only atom."""
    names = labels(rng, points)
    doc = topology_doc(rng, names, [names[:i] for i in range(1, points)])
    return doc, {"points": points, "opens": points + 1, "atoms": 1}


def block_space(rng: random.Random, points: int, blocks: int) -> tuple[dict, dict]:
    """A seeded partition into clopen blocks: 2**blocks opens, one atom
    per block."""
    names = labels(rng, points)
    doc = topology_doc(rng, names, [names[j::blocks] for j in range(blocks)])
    return doc, {"points": points, "opens": 1 << blocks, "atoms": blocks}


# ---------------------------------------------------------------------------
# workloads


class Writer:
    """Collects documents and ops; writes them and hashes what it wrote."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.docs: dict[str, str] = {}
        self.rounds: list[list[dict]] = []

    def doc(self, prefix: str, body: dict) -> str:
        name = f"{prefix}-{len(self.docs)}.json"
        self.docs[name] = json.dumps(body, sort_keys=True)
        return name

    def op(self, cls: str, argv: list[str], expect: dict, doc: str | None = None) -> dict:
        op = {"cls": cls, "argv": argv, "expect": expect}
        if doc is not None:
            op["input"] = doc
            op["argv"] = argv + ["--input", doc]
        return op

    def write(self) -> str:
        self.out.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        files = dict(self.docs)
        files[MANIFEST] = json.dumps({"rounds": self.rounds}, sort_keys=True)
        for name in sorted(files):
            data = files[name].encode()
            (self.out / name).write_bytes(data)
            digest.update(name.encode() + b"\0" + data + b"\0")
        return digest.hexdigest()


CAMPAIGN_ROUNDS = 10
# Ops per round for each (atom count k, universe size n), in the shares the
# pair has in the trials of `random`.  Over 20 000 seeds: (1,1) 20.3 %,
# (1,2) 12.2, (1,3) 4.3, (2,2) 7.3, (2,3) 8.5, (2,4) 1.5, (3,3) 7.6,
# (3,4) 5.2, (4,4) 13.0, (4,5) 1.7, (5,5) 17.8; the pairs left out are
# each under 0.4 %.  A fixed count per pair, not only per k, keeps the
# rounds' cost the same from seed to seed: within one k, the cost still
# grows with n.
CAMPAIGN_MIX = {(1, 1): 10, (1, 2): 6, (1, 3): 2, (2, 2): 4, (2, 3): 4, (2, 4): 1, (3, 3): 4, (3, 4): 3, (4, 4): 6, (4, 5): 1, (5, 5): 9}


def build_campaign(w: Writer, rng: random.Random) -> None:
    """One `random --trials 1` op per campaign seed (N = 2..32).  Seeds are
    drawn as `random` draws its trials and kept per (k, n) until every
    round can take its fixed ``CAMPAIGN_MIX``."""
    strata: dict[tuple[int, int], list[tuple[int, list[int]]]] = {key: [] for key in CAMPAIGN_MIX}
    while any(len(strata[key]) < CAMPAIGN_ROUNDS * per for key, per in CAMPAIGN_MIX.items()):
        seed = rng.randrange(1 << 30)
        n, subbasis = trial_space(seed)
        key = (rc_atom_count(n, subbasis), n)
        if len(strata.get(key, ())) < CAMPAIGN_ROUNDS * CAMPAIGN_MIX.get(key, 0):
            strata[key].append((seed, subbasis))
    for r in range(CAMPAIGN_ROUNDS):
        ops = []
        for (k, n), per in CAMPAIGN_MIX.items():
            for seed, subbasis in strata[(k, n)][r * per : (r + 1) * per]:
                expect = {
                    "exit": 0,
                    "universe": n,
                    "subbasis": [sorted(str(i) for i in range(n) if m >> i & 1) for m in subbasis],
                }
                ops.append(w.op(f"campaign-k{k}", ["random", "--seed", str(seed), "--trials", "1", "--json"], expect))
        rng.shuffle(ops)
        w.rounds.append(ops)


AXIOMS_ROUNDS = 12


def build_axioms(w: Writer, rng: random.Random) -> None:
    """`check-axioms --json` on covering documents: per round twelve k = 4
    ops and four k = 5 ops, passing (discrete, topology-derived) and failing
    (flipped, zero-sided)."""
    fixed = {}
    for k in (4, 5):
        fixed[("discrete", k)] = w.doc(f"discrete{k}", {"atoms": k, "covering_mode": "discrete"})
        fixed[("zero", k)] = w.doc(f"zero{k}", covering_doc(zero_sided_table(k)))
    # A k = 4 op takes 18-35 ms (zero-sided < discrete, flipped < derived)
    # and a k = 5 op 0.4-0.6 s.  Six derived k = 4 tables put the median op
    # inside that class rather than on the edge between two classes, where
    # it would jump between their costs from run to run.
    mix = {4: {"discrete": 1, "topo": 6, "flip": 3, "zero": 2}, 5: {"discrete": 1, "topo": 1, "flip": 1, "zero": 1}}
    argv = ["check-axioms", "--json"]
    for _ in range(AXIOMS_ROUNDS):
        ops = []
        for k, counts in mix.items():
            for kind, count in counts.items():
                for _ in range(count):
                    if kind in ("discrete", "zero"):
                        doc = fixed[(kind, k)]
                    else:
                        table = derived_covering(boundary_atoms(rng, k))
                        if kind == "flip":
                            table = flipped_table(rng, table)
                        doc = w.doc(f"{kind}{k}", covering_doc(table))
                    expect = {"exit": 0 if kind in ("discrete", "topo") else 1}
                    ops.append(w.op(f"axioms-{kind}-k{k}", argv, expect, doc))
        rng.shuffle(ops)
        w.rounds.append(ops)


REPRESENT_ROUNDS = 16
# (cores, arms, arms of 2 points) of the star space each pipeline runs on:
# 729, 1025 and 1089 opens.  The shapes are fixed, and the seed picks only
# labels, orders and which arms are long, because these ops take most of a
# round's time and their cost grows steeply with the shape.
STAR_SHAPES = {"rc": (3, 9, 4), "type1": (1, 10, 5), "type2": (2, 10, 5)}


def build_represent(w: Writer, rng: random.Random) -> None:
    """Representation pipelines and `rc` on wide few-atom spaces, the
    filter-frame pipeline on k = 3..4 coverings, and chains and blocks of
    20..100 points.  Per round: three star ops, four parametrized ops, two
    spaces of 20..63 points and two of 64..100 points."""
    for r in range(REPRESENT_ROUNDS):
        ops = []
        for kind, shape in STAR_SHAPES.items():
            doc, facts = star_space(rng, *shape)
            argv = ["rc", "--json"] if kind == "rc" else ["represent", "--kind", kind, "--json"]
            ops.append(w.op(f"represent-star-{kind}", argv, {"exit": 0, **facts}, w.doc("star", doc)))
        param = ["represent", "--kind", "parametrized", "--json"]
        for k, kind in ((3, ("discrete", "zero", "topo")[r % 3]), (4, "discrete"), (4, "zero"), (4, "topo")):
            if kind == "discrete":
                body = {"atoms": k, "covering_mode": "discrete"}
            elif kind == "zero":
                body = covering_doc(zero_sided_table(k))
            else:
                body = covering_doc(derived_covering(boundary_atoms(rng, k)))
            ops.append(w.op(f"represent-param-{kind}-k{k}", param, {"exit": 0, "worlds": k}, w.doc(f"param{kind}{k}", body)))
        for shape, kind, lo, hi in (
            ("chain", "type1", 20, OVERFLOW_POINTS - 1),
            ("blocks", "type2", 20, OVERFLOW_POINTS - 1),
            ("chain", "type2", OVERFLOW_POINTS, 100),
            ("blocks", "type1", OVERFLOW_POINTS, 100),
        ):
            points = rng.randint(lo, hi)
            if shape == "chain":
                doc, facts = chain_space(rng, points)
            else:
                doc, facts = block_space(rng, points, rng.randint(2, 4))
            size = "large" if points >= OVERFLOW_POINTS else "small"
            ops.append(w.op(f"represent-{shape}-{size}-{kind}", ["represent", "--kind", kind, "--json"], {"exit": 0, **facts}, w.doc(shape, doc)))
        rng.shuffle(ops)
        w.rounds.append(ops)


WORKLOADS = {"campaign": build_campaign, "axioms": build_axioms, "represent": build_represent}


def generate(workload: str, seed: int, out: Path) -> str:
    """Write the workload's manifest and documents; return their digest."""
    w = Writer(out)
    WORKLOADS[workload](w, random.Random(f"{workload}:{seed}"))
    return w.write()


def main() -> int:
    parser = argparse.ArgumentParser(description="write one workload's benchmark inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    require_program()
    import mereotop.cli  # noqa: F401  (set-up covers the program's imports)

    print(generate(args.workload, args.seed, Path(args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
