"""Command-line front end.

Commands: ``rc`` (regular closed algebra of a topology document),
``check-axioms`` (axiom systems of a covering or of a topology's covering),
``represent`` (run one of the three representation pipelines and verify the
embedding), ``example1`` (built-in two-space isomorphism demonstration),
and ``random`` (seeded random campaigns over the whole suite).

Output goes to stdout — human-readable by default, canonical JSON with
``--json`` (sorted keys, two-space indent, no timestamps, so identical
configurations give byte-identical reports).  A ``--json`` report is exactly
``json.dumps(doc, sort_keys=True, indent=2)``, non-ASCII escaped, plus a
newline; ``_json_text`` writes those bytes without the stdlib's pure-Python
indenting encoder.  Warnings go to stderr.
Exit status: 0 when every executed check passed, 1 when any check failed,
2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Sequence

from .algebra import (
    AxiomViolation,
    CheckResult,
    CoveringRelation,
    TopologicalEca,
    check_ca,
    check_eca,
    check_relative_contact_laws,
    check_weca,
    check_weca_consequences,
    checks_document,
    covering_from_document,
    covering_from_json,
    derived_contact,
    eca_from_rc,
)
from .representations import (
    build_parametrized_frame,
    build_type1,
    build_type2,
    verification_document,
    verify_c_preservation,
    verify_embedding,
)
from .topology import (
    DocumentError,
    LabeledTopology,
    PointSet,
    generate_topology,
    labeled_topology_from_document,
    rc_algebra,
    rc_contact,
    rc_internally_connected,
)

DEFAULT_CAP_ELEMENTS = 64
DEFAULT_MAX_UNIVERSE = 5
TRIAL_SEED_STRIDE = 1_000_003

EXAMPLE_SPACE = {
    "universe": ["1", "2", "3", "4", "5", "6", "7"],
    "subbasis": [["1", "2", "3"], ["2", "5", "7"], ["3", "6", "7"]],
}
EXAMPLE_SPACE_PRIME = {
    "universe": ["2", "3", "4", "5", "6", "7"],
    "subbasis": [["2", "3"], ["2", "5", "7"], ["3", "6", "7"]],
}
EXAMPLE_REGION = ["1", "2", "3", "4", "5", "6"]
EXAMPLE_REGION_PRIME = ["2", "3", "4", "5", "6"]
EXAMPLE_CONCLUSION = "isomorphism verified; c° differs; non-definability witnessed"


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation depends on; the seed fully
    determines any randomized campaign."""

    command: str
    input_path: str | None = None
    kind: str | None = None
    seed: int = 0
    trials: int = 10
    max_universe: int = DEFAULT_MAX_UNIVERSE
    cap_elements: int | None = None
    output_json: bool = False
    verbose: bool = False

    def elements_cap(self) -> int:
        return self.cap_elements if self.cap_elements is not None else DEFAULT_CAP_ELEMENTS


@dataclass(frozen=True)
class CampaignReport:
    """Per-trial verdicts plus aggregates; aggregates are computed from the
    trials so they cannot drift apart."""

    seed: int
    max_universe: int
    trials: tuple[dict, ...]

    @property
    def passed_count(self) -> int:
        return sum(1 for t in self.trials if t["passed"])

    @property
    def all_passed(self) -> bool:
        return self.passed_count == len(self.trials)

    @property
    def first_counterexample(self) -> dict | None:
        for t in self.trials:
            if not t["passed"]:
                return {"trial": t["trial"], "failure": t["failures"][0]}
        return None

    def to_document(self) -> dict:
        return {
            "command": "random",
            "seed": self.seed,
            "max_universe": self.max_universe,
            "total": len(self.trials),
            "passed": self.passed_count,
            "failed": len(self.trials) - self.passed_count,
            "all_passed": self.all_passed,
            "first_counterexample": self.first_counterexample,
            "trials": list(self.trials),
        }


# ---------------------------------------------------------------------------
# input plumbing


def _read_input(path: str | None) -> bytes:
    if path is None:
        raise DocumentError("this command needs --input FILE")
    with open(path, "rb") as fh:
        return fh.read()


def _parse_json(raw: bytes, path: str) -> object:
    # decoded as a text-mode open would, so error positions count the same lines
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"invalid JSON in {path} at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise DocumentError(f"{path} nests too deeply to read as JSON") from err


def _read_json(path: str | None) -> object:
    return _parse_json(_read_input(path), path)


def _document_kind(doc: object) -> str:
    if isinstance(doc, dict):
        if "universe" in doc:
            return "topology"
        if "atoms" in doc:
            return "covering"
        if "worlds" in doc:
            return "frame"
    raise DocumentError(
        'unrecognized document: expected "universe" (topology) or "atoms" (covering)'
    )


def _topological_source(doc: object, config: RunConfig) -> tuple[LabeledTopology, TopologicalEca]:
    labeled = labeled_topology_from_document(doc)
    algebra = rc_algebra(labeled.topology, cap_elements=config.elements_cap())
    return labeled, eca_from_rc(algebra, cap_elements=config.elements_cap())


def _input_covering(config: RunConfig, frame_error: str) -> tuple[CoveringRelation, str]:
    """The covering of a covering or topology document, and the document's
    kind.  A plain triple-list document is read straight from its bytes;
    any other input goes through the JSON reader, which reports its faults."""
    raw = _read_input(config.input_path)
    covering = covering_from_json(raw, cap_elements=config.elements_cap())
    if covering is not None:
        return covering, "covering"
    doc = _parse_json(raw, config.input_path)
    kind = _document_kind(doc)
    if kind == "covering":
        return covering_from_document(doc, cap_elements=config.elements_cap()), kind
    if kind == "topology":
        return _topological_source(doc, config)[1].covering, kind
    raise DocumentError(frame_error)


def _json_text(value: object, indent: str, memo: dict | None = None) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value nested at
    ``indent``.  With ``indent`` set the stdlib runs its pure-Python encoder;
    here a list of exact ``str`` or exact ``int`` is written by one join, and
    a scalar the stdlib writes in a fixed form is written in that form.  A
    list object met again at the same indent, such as the label list a
    verification report shares among an atom's worlds, is written at most
    twice: ``memo`` maps (id, indent) to "" when a list is first met and
    to its text when it is met again, for one top-level call, while the
    document holds every list alive.  So only shared lists keep their
    text until the call returns."""
    if type(value) is str:
        return _quote(value)
    if memo is None:
        memo = {}
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = [_quote(key) + ": " + _json_text(item, inner, memo) for key, item in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        key = (id(value), indent)
        text = memo.get(key)
        if text:
            return text
        inner = indent + "  "
        kinds = set(map(type, value))
        if kinds == {str}:
            body = map(_quote, value)
        elif kinds == {int}:
            body = map(int.__repr__, value)
        else:
            body = [_json_text(item, inner, memo) for item in value]
        text = "[\n" + inner + (",\n" + inner).join(body) + "\n" + indent + "]"
        memo[key] = text if key in memo else ""
        return text
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _emit_json(doc: dict) -> None:
    print(_json_text(doc, ""))


def _print_checks(checks: list[dict]) -> None:
    for check in checks:
        verdict = "pass" if check["pass"] else f"FAIL at {tuple(check['witness'])}"
        print(f"{check['name']}: {verdict}")


def _set_text(labels: list[str]) -> str:
    return "{" + ", ".join(labels) + "}"


# ---------------------------------------------------------------------------
# rc


def cmd_rc(config: RunConfig) -> int:
    doc = _read_json(config.input_path)
    if _document_kind(doc) != "topology":
        raise DocumentError('rc needs a topology document ("universe" + "subbasis")')
    labeled = labeled_topology_from_document(doc)
    algebra = rc_algebra(labeled.topology, cap_elements=config.elements_cap())
    size = len(algebra.carrier)
    connected = [rc_internally_connected(algebra, c) for c in algebra.carrier]
    out = {
        "command": "rc",
        "universe": list(labeled.labels),
        "open_sets": labeled.topology.open_count,
        "carrier_size": size,
        "atom_indices": list(algebra.atom_indices),
        "carrier": [
            {
                "index": i,
                "points": labeled.labels_of(c),
                "atom": i in algebra.atom_indices,
                "internally_connected": connected[i],
            }
            for i, c in enumerate(algebra.carrier)
        ],
    }
    if config.verbose:
        out["contact"] = [
            [rc_contact(algebra, x, y) for y in algebra.carrier] for x in algebra.carrier
        ]
        if size <= 32:
            teca = eca_from_rc(algebra, cap_elements=config.elements_cap())
            translate = [algebra.index_of(ps) for ps in algebra.element_sets]
            out["covering"] = sorted(
                [translate[a], translate[b], translate[d]]
                for a, b, d in teca.covering.true_triples()
            )
        else:
            out["covering"] = "omitted (carrier larger than 32)"
    if config.output_json:
        _emit_json(out)
    else:
        print(f"universe ({len(labeled.labels)}): {' '.join(labeled.labels)}")
        print(f"open sets: {out['open_sets']}")
        print(f"regular closed carrier: {size} elements, {len(algebra.atoms)} atoms")
        for row in out["carrier"]:
            tags = []
            if row["atom"]:
                tags.append("atom")
            tags.append(
                "internally connected" if row["internally_connected"] else "disconnected"
            )
            print(f"  [{row['index']}] {_set_text(row['points'])} ({', '.join(tags)})")
        if config.verbose:
            print("contact table (carrier indices):")
            for i, line in enumerate(out["contact"]):
                cells = " ".join("C" if v else "." for v in line)
                print(f"  [{i}] {cells}")
    return 0


# ---------------------------------------------------------------------------
# check-axioms


def cmd_check_axioms(config: RunConfig) -> int:
    covering, kind = _input_covering(
        config,
        "check-axioms takes a topology or covering document; "
        "frame documents are outputs, not inputs",
    )
    cap = config.elements_cap()
    derived = "topology-derived " if kind == "topology" else ""
    described = f"{derived}covering ({covering.algebra.atom_count} atoms)"
    weca = check_weca(covering, cap_elements=cap)
    eca = check_eca(covering, cap_elements=cap)
    systems: list[dict] = [
        {"name": "WECA", "checks": checks_document(weca.results)},
        {"name": "ECA", "checks": checks_document(eca.results)},
    ]
    executed = [weca, eca]
    if eca.all_passed:
        ca = check_ca(derived_contact(covering), cap_elements=cap)
        systems.append({"name": "CA", "checks": checks_document(ca.results)})
        executed.append(ca)
    else:
        systems.append(
            {
                "name": "CA",
                "skipped": True,
                "reason": "contact is derived only when the extended axioms hold",
            }
        )
    all_passed = all(r.all_passed for r in executed)
    out = {
        "command": "check-axioms",
        "input": described,
        "systems": systems,
        "all_passed": all_passed,
    }
    if config.output_json:
        _emit_json(out)
    else:
        print(f"input: {described}")
        for system in systems:
            if system.get("skipped"):
                print(f"{system['name']}: skipped ({system['reason']})")
            else:
                _print_checks(system["checks"])
        print("all checks passed" if all_passed else "some checks FAILED")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# represent


def _print_report_text(doc: dict) -> None:
    print(f"pipeline: {doc['pipeline']} ({doc['mode']})")
    frame = doc["frame"]
    print(f"frame: kind={frame['kind']} worlds={frame['worlds']}")
    _print_checks(doc["checks"])
    ok = all(c["pass"] for c in doc["checks"])
    print("all checks passed" if ok else "some checks FAILED")


def cmd_represent(config: RunConfig) -> int:
    cap = config.elements_cap()
    if config.kind == "parametrized":
        covering, _ = _input_covering(config, "represent takes a topology or covering document")
        weca = check_weca(covering, cap_elements=cap)
        if not weca.all_passed:
            out = {
                "command": "represent",
                "pipeline": "parametrized",
                "input_axioms": checks_document(weca.results),
                "all_passed": False,
            }
            if config.output_json:
                _emit_json(out)
            else:
                print("input covering fails the weak axioms:")
                for check in out["input_axioms"]:
                    if not check["pass"]:
                        print(f"  {check['name']}: FAIL at {tuple(check['witness'])}")
            return 1
        embedding = build_parametrized_frame(covering)
        report = verify_embedding(embedding, pipeline="parametrized")
        out = verification_document(report, embedding)
    else:
        doc = _read_json(config.input_path)
        kind = _document_kind(doc)
        if kind == "covering":
            raise DocumentError(
                "the type1/type2 pipelines need a topological model of the algebra; "
                "an abstract covering algebra does not determine one — "
                "provide a topology document"
            )
        if kind != "topology":
            raise DocumentError("represent takes a topology or covering document")
        labeled, teca = _topological_source(doc, config)
        eca = check_eca(teca.covering, cap_elements=cap)
        if not eca.all_passed:
            raise AxiomViolation("extended contact axioms", eca)
        builder = build_type1 if config.kind == "type1" else build_type2
        embedding = builder(teca)
        report = verify_embedding(embedding, pipeline=config.kind)
        if config.kind == "type2":
            report = report.extended(verify_c_preservation(embedding))
        out = verification_document(report, embedding, labeled=labeled, teca=teca)
    out["command"] = "represent"
    if config.output_json:
        _emit_json(out)
    else:
        _print_report_text(out)
    return 0 if all(c["pass"] for c in out["checks"]) else 1


# ---------------------------------------------------------------------------
# example1


def _example_checks() -> tuple[list[dict], dict, bool]:
    space = labeled_topology_from_document(EXAMPLE_SPACE)
    space_p = labeled_topology_from_document(EXAMPLE_SPACE_PRIME)
    alg = rc_algebra(space.topology)
    alg_p = rc_algebra(space_p.topology)
    image = [
        space_p.set_from_labels([lab for lab in space.labels_of(a) if lab != "1"])
        for a in alg.carrier
    ]
    checks: list[CheckResult] = []

    def record(name: str, witness: tuple | None) -> None:
        checks.append(CheckResult(name, witness is None, witness))

    witness = None
    if sorted(ps.bits for ps in image) != [c.bits for c in alg_p.carrier]:
        witness = (sorted(ps.bits for ps in image),)
    record("f-bijection", witness)
    record("f-preserves-zero", None if image[0].is_empty else (0,))
    witness = None
    for i, a in enumerate(alg.carrier):
        if image[alg.index_of(alg.star(a))] != alg_p.star(image[i]):
            witness = (i,)
            break
    record("f-preserves-complement", witness)
    witness = None
    for i, a in enumerate(alg.carrier):
        if witness:
            break
        for j, b in enumerate(alg.carrier):
            if image[alg.index_of(alg.join(a, b))] != image[i] | image[j]:
                witness = (i, j)
                break
    record("f-preserves-join", witness)
    witness = None
    for i, a in enumerate(alg.carrier):
        if witness:
            break
        for j, b in enumerate(alg.carrier):
            if rc_contact(alg, a, b) != rc_contact(alg_p, image[i], image[j]):
                witness = (i, j)
                break
    record("f-preserves-contact", witness)

    region = space.set_from_labels(EXAMPLE_REGION)
    region_p = space_p.set_from_labels(EXAMPLE_REGION_PRIME)
    connected = rc_internally_connected(alg, region)
    connected_p = rc_internally_connected(alg_p, region_p)
    record("region-internally-connected", None if connected else ())
    record("primed-region-disconnected", None if not connected_p else ())

    detail = {
        "spaces": {
            "X": {
                "universe": list(space.labels),
                "carrier": [space.labels_of(c) for c in alg.carrier],
            },
            "X_prime": {
                "universe": list(space_p.labels),
                "carrier": [space_p.labels_of(c) for c in alg_p.carrier],
            },
        },
        "isomorphism": [
            {"from": space.labels_of(a), "to": space_p.labels_of(image[i])}
            for i, a in enumerate(alg.carrier)
        ],
        "regions": {
            "X": {"points": list(EXAMPLE_REGION), "internally_connected": connected},
            "X_prime": {
                "points": list(EXAMPLE_REGION_PRIME),
                "internally_connected": connected_p,
            },
        },
    }
    ok = all(c.passed for c in checks)
    if ok:
        detail["contact_differences"] = []
    else:
        detail["contact_differences"] = [
            [i, j]
            for i, a in enumerate(alg.carrier)
            for j, b in enumerate(alg.carrier)
            if rc_contact(alg, a, b) != rc_contact(alg_p, image[i], image[j])
        ]
    return checks_document(checks), detail, ok


def cmd_example1(config: RunConfig) -> int:
    checks, detail, ok = _example_checks()
    out = {
        "command": "example1",
        "checks": checks,
        "conclusion": EXAMPLE_CONCLUSION if ok else "verification FAILED",
        **detail,
    }
    if config.output_json:
        _emit_json(out)
    else:
        print("space X: universe", " ".join(detail["spaces"]["X"]["universe"]))
        print("space X': universe", " ".join(detail["spaces"]["X_prime"]["universe"]))
        print("regular closed sets of X mapped by f (drop point 1):")
        for pair in detail["isomorphism"]:
            print(f"  {_set_text(pair['from'])} -> {_set_text(pair['to'])}")
        for check in checks:
            verdict = "pass" if check["pass"] else "FAIL"
            print(f"{check['name']}: {verdict}")
        rx = detail["regions"]["X"]
        rp = detail["regions"]["X_prime"]
        print(
            f"c° of {_set_text(rx['points'])} in X: "
            f"{'true' if rx['internally_connected'] else 'false'}"
        )
        print(
            f"c° of {_set_text(rp['points'])} in X': "
            f"{'true' if rp['internally_connected'] else 'false'}"
        )
        if config.verbose:
            diffs = detail["contact_differences"]
            print(f"contact differences across f: {len(diffs)}")
            for i, j in diffs:
                print(f"  carrier pair ({i}, {j})")
        print(out["conclusion"])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# random campaigns


def _sample_subbasis(rng: random.Random, n: int) -> list[int]:
    pool = [m for m in range(1 << n) if m.bit_count() <= 3]
    pool.append(rng.getrandbits(n))
    pool.append(rng.getrandbits(n))
    return [m for m in pool if rng.random() < 0.5]


def _failures_from(system: str, checks: tuple[CheckResult, ...]) -> list[dict]:
    return [{"system": system, "check": r.name, "witness": list(r.witness)} for r in checks if not r.passed]


def _run_trial(config: RunConfig, trial: int) -> dict:
    rng = random.Random(config.seed * TRIAL_SEED_STRIDE + trial)
    n = rng.randint(1, config.max_universe)
    subbasis = _sample_subbasis(rng, n)
    labels = [str(i) for i in range(n)]
    topo = generate_topology(n, [PointSet(n, m) for m in subbasis])
    cap = config.elements_cap()
    algebra = rc_algebra(topo, cap_elements=cap)
    teca = eca_from_rc(algebra, cap_elements=cap)
    covering = teca.covering
    eca = check_eca(covering, cap_elements=cap)
    failures = _failures_from("ECA", eca.results)
    if eca.all_passed:
        failures += _failures_from("CA", check_ca(derived_contact(covering), cap_elements=cap).results)
    failures += _failures_from("RCL", check_relative_contact_laws(covering, cap_elements=cap).results)
    failures += _failures_from("CONS", check_weca_consequences(covering, cap_elements=cap).results)
    for kind, builder in (("type1", build_type1), ("type2", build_type2)):
        embedding = builder(teca)
        report = verify_embedding(embedding, pipeline=kind)
        if kind == "type2":
            report = report.extended(verify_c_preservation(embedding))
        failures += _failures_from(kind, report.checks)
    return {
        "trial": trial,
        "universe": n,
        "subbasis": [
            sorted(labels[i] for i in range(n) if m >> i & 1) for m in subbasis
        ],
        "passed": not failures,
        "failures": failures,
    }


def cmd_random(config: RunConfig) -> int:
    report = CampaignReport(
        config.seed,
        config.max_universe,
        tuple(_run_trial(config, t) for t in range(config.trials)),
    )
    if config.output_json:
        _emit_json(report.to_document())
    else:
        for t in report.trials:
            verdict = "pass" if t["passed"] else "FAIL"
            basis = "; ".join(_set_text(s) for s in t["subbasis"]) or "(empty)"
            print(f"trial {t['trial']}: n={t['universe']} subbasis {basis} -> {verdict}")
            if config.verbose:
                for f in t["failures"]:
                    print(f"    {f['system']} {f['check']} witness {f['witness']}")
        print(
            f"seed {report.seed}: {report.passed_count}/{len(report.trials)} trials passed"
        )
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", dest="input_path", metavar="FILE", help="JSON input document")
    parser.add_argument("--json", dest="output_json", action="store_true", help="canonical JSON output")
    parser.add_argument("--verbose", action="store_true", help="include tables/diffs")
    parser.add_argument(
        "--cap-elements", dest="cap_elements", type=int, metavar="N",
        help=f"override the exhaustive-check element cap (default {DEFAULT_CAP_ELEMENTS})",
    )


@cache  # built once per process: building costs about as much as a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mereotop",
        description="Finite mereotopology: regular closed algebras, covering axioms, "
        "and verified frame representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("rc", help="regular closed algebra of a topology"))
    _add_common(sub.add_parser("check-axioms", help="axiom systems of a covering"))
    represent = sub.add_parser("represent", help="run a representation pipeline")
    _add_common(represent)
    represent.add_argument(
        "--kind", required=True, choices=["parametrized", "type1", "type2"]
    )
    _add_common(sub.add_parser("example1", help="built-in two-space demonstration"))
    rand = sub.add_parser("random", help="seeded random verification campaign")
    _add_common(rand)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--trials", type=int, default=10)
    rand.add_argument(
        "--max-universe", dest="max_universe", type=int, default=DEFAULT_MAX_UNIVERSE
    )
    return parser


def _config_from_namespace(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    cap_elements = getattr(ns, "cap_elements", None)
    if cap_elements is not None and cap_elements < 1:
        parser.error("--cap-elements must be positive")
    if cap_elements is not None and cap_elements > DEFAULT_CAP_ELEMENTS:
        print(
            f"warning: --cap-elements {cap_elements} above the default "
            f"{DEFAULT_CAP_ELEMENTS}; exhaustive checks may run long",
            file=sys.stderr,
        )
    trials = getattr(ns, "trials", 0)
    max_universe = getattr(ns, "max_universe", DEFAULT_MAX_UNIVERSE)
    seed = getattr(ns, "seed", 0)
    if trials < 0:
        parser.error("--trials must be nonnegative")
    if max_universe < 1:
        parser.error("--max-universe must be positive")
    if seed < 0:
        parser.error("--seed must be nonnegative")
    return RunConfig(
        command=ns.command,
        input_path=getattr(ns, "input_path", None),
        kind=getattr(ns, "kind", None),
        seed=seed,
        trials=trials,
        max_universe=max_universe,
        cap_elements=cap_elements,
        output_json=ns.output_json,
        verbose=ns.verbose,
    )


_COMMANDS: dict[str, Callable[[RunConfig], int]] = {
    "rc": cmd_rc,
    "check-axioms": cmd_check_axioms,
    "represent": cmd_represent,
    "example1": cmd_example1,
    "random": cmd_random,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        config = _config_from_namespace(ns, parser)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return _COMMANDS[config.command](config)
    except (OSError, ValueError, MemoryError) as err:  # DocumentError and CapExceeded are ValueErrors
        print(f"error: {err or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
