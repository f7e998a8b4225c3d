"""Correctness gate: what each op's exit code and canonical JSON must show.

``check_op`` returns None for a correct op and a reason string otherwise.
Every verdict the paper's theorems settle is checked (topology-derived,
discrete, zero-sided and flipped inputs), and every witness a failing check
reports is re-evaluated at its tuple against the literal axiom statement.
The statements transcribe the naive loops of ``tests/oracles.py``; the
self-test checks that both find the same first witness.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from inputs import OVERFLOW_POINTS


def _le(a: int, b: int) -> bool:
    return a & ~b == 0


# name -> (arity, violated(V, tuple)); V is the covering table.
LITERAL: dict[str, tuple[int, Callable[..., bool]]] = {
    "WECA1": (5, lambda V, a, b, d, e, f: _le(a, d) and _le(b, e) and V[d, e, f] and not V[a, b, f]),
    "WECA2": (3, lambda V, a, b, f: (a == 0 or b == 0) and not V[a, b, f]),
    "WECA3": (5, lambda V, a, b, d, e, f: V[a, b, f] and V[d, e, f] and not (V[a & d, b | e, f] and V[a | d, b & e, f])),
    "WECA4": (4, lambda V, a, b, d, f: V[a, b, d] and _le(d, f) and not V[a, b, f]),
    "ECA1": (5, lambda V, a, b, d, e, f: V[a, b, f] and not V[a | d, b | e, d | e | f]),
    "ECA2": (5, lambda V, a, b, d, e, f: V[a, b, d] and V[a, b, e] and V[d, e, f] and not V[a, b, f]),
    "ECA3": (3, lambda V, a, b, f: (_le(a, f) or _le(b, f)) and not V[a, b, f]),
    "ECA4": (3, lambda V, a, b, f: V[a, b, f] and not _le(a & b, f)),
    "ECA5": (3, lambda V, a, b, f: V[a, b, f] and not V[b, a, f]),
}


EMBEDDING_CHECKS = {"injective", "preserves-zero", "preserves-complement", "preserves-join", "preserves-covering"}


def covering_table(doc: dict) -> np.ndarray:
    """The table a covering document denotes (subset covering for
    ``"covering_mode": "discrete"``)."""
    n = 1 << doc["atoms"]
    if doc.get("covering_mode") == "discrete":
        m = np.arange(n)
        return (m[:, None, None] & m[None, :, None] & ~m[None, None, :]) == 0
    table = np.zeros((n, n, n), dtype=bool)
    if doc["covering"]:
        table[tuple(np.array(doc["covering"]).T)] = True
    return table


def witness_error(name: str, witness: list, table: np.ndarray) -> str | None:
    """None when the literal axiom ``name`` is violated at ``witness``."""
    if name not in LITERAL:
        return f"{name} failed, but it has no literal statement to re-check"
    arity, violated = LITERAL[name]
    n = len(table)
    if not isinstance(witness, list) or len(witness) != arity or not all(0 <= x < n for x in witness):
        return f"{name} witness {witness!r} is not a {arity}-tuple of elements"
    if not violated(table, *witness):
        return f"{name} witness {witness} does not violate the axiom"
    return None


def checks_of(doc: dict) -> list[dict]:
    if doc["command"] == "check-axioms":
        return [c for s in doc["systems"] for c in s.get("checks", [])]
    return doc["checks"]


def check_op(op: dict, code: int, stdout: str, table: np.ndarray | None = None) -> str | None:
    """Reason the op's output is wrong, or None.  ``table`` is the covering
    of a check-axioms input, used to re-check witnesses."""
    expect = op["expect"]
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as err:
        return f"stdout is not JSON: {err}"
    command = op["argv"][0]
    if doc.get("command") != command:
        return f"command {doc.get('command')!r}, expected {command!r}"
    if command == "random":
        trial = doc["trials"][0]
        if (doc["total"], doc["passed"], doc["all_passed"]) != (1, 1, True) or trial["failures"]:
            return f"campaign trial failed: {trial['failures']}"
        if (trial["universe"], trial["subbasis"]) != (expect["universe"], expect["subbasis"]):
            return f"campaign tested n={trial['universe']} {trial['subbasis']}, expected n={expect['universe']} {expect['subbasis']}"
        return None
    if command == "rc":
        atoms = len(doc["atom_indices"])
        got = (len(doc["universe"]), doc["open_sets"], atoms, doc["carrier_size"])
        want = (expect["points"], expect["opens"], expect["atoms"], 1 << expect["atoms"])
        if got != want:
            return f"rc gave (points, opens, atoms, carrier) {got}, expected {want}"
        return None
    checks = checks_of(doc)
    failed = [c for c in checks if not c["pass"]]
    if expect["exit"] == 0:
        if failed or (command == "check-axioms" and not doc["all_passed"]):
            return f"checks failed on an input the theorems cover: {[c['name'] for c in failed]}"
        if command == "check-axioms" and [s["name"] for s in doc["systems"] if s.get("checks")] != ["WECA", "ECA", "CA"]:
            return "check-axioms skipped a system on a passing input"
    elif not failed:
        return "no check failed on a failing input"
    for c in checks:
        if (c["witness"] is None) != c["pass"]:
            return f"{c['name']}: pass={c['pass']} with witness {c['witness']}"
    if command == "check-axioms":
        if table is None:
            return "no covering table to re-check witnesses against"
        for c in failed:
            reason = witness_error(c["name"], c["witness"], table)
            if reason:
                return reason
        return None
    names = {c["name"] for c in checks}
    if not EMBEDDING_CHECKS <= names or (op["argv"][2] == "type2") != ("preserves-internal-connectedness" in names):
        return f"{op['argv'][2]} pipeline ran the checks {sorted(names)}"
    worlds = doc["frame"]["worlds"]
    want = expect["worlds"] if "worlds" in expect else expect["points"]
    if worlds != want:
        return f"frame has {worlds} worlds, expected {want}"
    if doc["mode"] != "exhaustive":
        return f"covering check was {doc['mode']}, expected exhaustive"
    return None


def known_defect(op: dict, exc: BaseException) -> bool:
    """ROADMAP item 2(a): `eca_from_rc` overflows int64 point-set bits on
    universes of 64 or more points.  Those ops may raise OverflowError; once
    fixed they must pass the gate like any other."""
    return isinstance(exc, OverflowError) and op["expect"].get("points", 0) >= OVERFLOW_POINTS
