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
indenting encoder: one recursive writer appends every piece to one list
that is joined once, and writes each str, int, bool and None inline with
its key in a dict or its separator in a list.  Warnings go to stderr.
The first word of a command line picks the command, and that command's own
parser alone reads the rest; a line without a command, or one it leaves
words of, goes through the full parser, so usage errors read as before.
Exit status: 0 when every executed check passed, 1 when any check failed,
2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, Sequence

from .algebra import (
    AxiomReport,
    CheckResult,
    CoveringRelation,
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
    signatures,
)
from .representations import (
    build_parametrized_frame,
    build_type1,
    build_type2,
    verification_document,
    verify_embedding,
)
from .topology import (
    DocumentError,
    LabeledTopology,
    PointSet,
    RegularClosedAlgebra,
    generate_topology,
    labeled_topology_from_document,
    over_cap,
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
    except UnicodeDecodeError as err:
        raise DocumentError(
            f"invalid JSON in {path}: byte {err.object[err.start]:#04x} at position {err.start} is not UTF-8 ({err.reason})"
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
    raise DocumentError(
        'unrecognized document: expected "universe" (topology) or "atoms" (covering)'
    )


def _input_covering(args: argparse.Namespace) -> tuple[CoveringRelation, tuple[LabeledTopology, RegularClosedAlgebra] | None]:
    """The covering of a covering or topology document and, for a topology,
    the labelled space and its regular closed algebra.  A plain triple-list
    document is read straight from its bytes, and refused by its head when
    that is over the cap; any other input goes through the JSON reader,
    which reports its faults."""
    raw = _read_input(args.input_path)
    covering = covering_from_json(raw, cap_elements=args.cap_elements)
    if covering is not None:
        return covering, None
    doc = _parse_json(raw, args.input_path)
    if _document_kind(doc) == "covering":
        return covering_from_document(doc, cap_elements=args.cap_elements), None
    labeled = labeled_topology_from_document(doc)
    algebra = rc_algebra(labeled.topology, cap_elements=args.cap_elements)
    return eca_from_rc(algebra), (labeled, algebra)


def _json_text(value: object, indent: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value nested at
    ``indent``.  With ``indent`` set the stdlib runs its pure-Python encoder;
    here the pieces go into one list, joined once (:func:`_write_json`)."""
    out: list[str] = []
    _write_json(value, indent, out)
    return "".join(out)


# the stdlib's fixed text of each scalar type, written inline
_SCALAR_TEXT: dict[type, Callable[[object], str]] = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write_json(value: object, indent: str, out: list[str]) -> None:
    """Append the text of ``value`` at ``indent`` to ``out``.  A str, int,
    bool or None is written in the stdlib's fixed form, inline with its key
    in a dict or its separator in a list; a dict or list inside recurses."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                out.append(f"{sep}{_quote(key)}: ")
                _write_json(item, inner, out)
            else:
                out.append(f"{sep}{_quote(key)}: {scalar(item)}")
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                out.append(sep)
                _write_json(item, inner, out)
            else:
                out.append(sep + scalar(item))
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))


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


def cmd_rc(args: argparse.Namespace) -> int:
    doc = _read_json(args.input_path)
    if _document_kind(doc) != "topology":
        raise DocumentError('rc needs a topology document ("universe" + "subbasis")')
    labeled = labeled_topology_from_document(doc)
    algebra = rc_algebra(labeled.topology, cap_elements=args.cap_elements)
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
    if args.verbose:
        out["contact"] = [
            [rc_contact(algebra, x, y) for y in algebra.carrier] for x in algebra.carrier
        ]
        if size <= 32:
            covering = eca_from_rc(algebra)
            translate = [algebra.index_of(ps) for ps in algebra.element_sets]
            out["covering"] = sorted(
                [translate[a], translate[b], translate[d]]
                for a, b, d in covering.true_triples()
            )
        else:
            out["covering"] = "omitted (carrier larger than 32)"
    if args.output_json:
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
        if args.verbose:
            print("contact table (carrier indices):")
            for i, line in enumerate(out["contact"]):
                cells = " ".join("C" if v else "." for v in line)
                print(f"  [{i}] {cells}")
    return 0


# ---------------------------------------------------------------------------
# check-axioms


def cmd_check_axioms(args: argparse.Namespace) -> int:
    covering, space = _input_covering(args)
    derived = "topology-derived " if space else ""
    described = f"{derived}covering ({covering.algebra.atom_count} atoms)"
    weca = check_weca(covering)
    eca = check_eca(covering)
    systems: list[dict] = [
        {"name": "WECA", "checks": checks_document(weca.results)},
        {"name": "ECA", "checks": checks_document(eca.results)},
    ]
    executed = [weca, eca]
    if eca.all_passed:
        ca = check_ca(derived_contact(covering))
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
    if args.output_json:
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


def cmd_represent(args: argparse.Namespace) -> int:
    """Check the input's covering against the pipeline's axiom system (weak
    for the maximal-filter frame, extended for the equivalence frames), then
    build and verify the frame.  The equivalence frames take the points of
    a topology document, or for a covering document the members of its S*,
    whose covering it is when it passes the extended axioms."""
    covering, space = _input_covering(args)
    weak = args.kind == "parametrized"
    axioms = (check_weca if weak else check_eca)(covering)
    if not axioms.all_passed:
        out = {
            "command": "represent",
            "pipeline": args.kind,
            "input_axioms": checks_document(axioms.results),
            "all_passed": False,
        }
        if args.output_json:
            _emit_json(out)
        else:
            print(f"input covering fails the {'weak' if weak else 'extended'} axioms:")
            for check in out["input_axioms"]:
                if not check["pass"]:
                    print(f"  {check['name']}: FAIL at {tuple(check['witness'])}")
        return 1
    labeled, algebra = space or (None, None)
    points = None
    if weak:
        embedding = build_parametrized_frame(covering)
    else:
        points = algebra.point_signatures if algebra else signatures(covering)
        embedding = (build_type1 if args.kind == "type1" else build_type2)(covering, points)
    out = verification_document(verify_embedding(embedding), embedding, labeled=labeled, points=points)
    out["command"] = "represent"
    if args.output_json:
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
    pairs = [(i, a, j, b) for i, a in enumerate(alg.carrier) for j, b in enumerate(alg.carrier)]
    images = sorted(ps.bits for ps in image)
    complement = ((i,) for i, a in enumerate(alg.carrier) if image[alg.index_of(alg.star(a))] != alg_p.star(image[i]))
    join = ((i, j) for i, a, j, b in pairs if image[alg.index_of(alg.join(a, b))] != image[i] | image[j])
    differences = [[i, j] for i, a, j, b in pairs if rc_contact(alg, a, b) != rc_contact(alg_p, image[i], image[j])]
    region = space.set_from_labels(EXAMPLE_REGION)
    region_p = space_p.set_from_labels(EXAMPLE_REGION_PRIME)
    connected = rc_internally_connected(alg, region)
    connected_p = rc_internally_connected(alg_p, region_p)
    report = AxiomReport.of(
        {
            "f-bijection": None if images == [c.bits for c in alg_p.carrier] else (images,),
            "f-preserves-zero": None if image[0].is_empty else (0,),
            "f-preserves-complement": next(complement, None),
            "f-preserves-join": next(join, None),
            "f-preserves-contact": tuple(differences[0]) if differences else None,
            "region-internally-connected": None if connected else (),
            "primed-region-disconnected": None if not connected_p else (),
        }
    )
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
        "contact_differences": differences,
    }
    return checks_document(report.results), detail, report.all_passed


def cmd_example1(args: argparse.Namespace) -> int:
    checks, detail, ok = _example_checks()
    out = {
        "command": "example1",
        "checks": checks,
        "conclusion": EXAMPLE_CONCLUSION if ok else "verification FAILED",
        **detail,
    }
    if args.output_json:
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
        if args.verbose:
            diffs = detail["contact_differences"]
            print(f"contact differences across f: {len(diffs)}")
            for i, j in diffs:
                print(f"  carrier pair ({i}, {j})")
        print(out["conclusion"])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# random campaigns


def _small_masks(n: int) -> Iterator[int]:
    """Every mask of at most three of n points, ascending, without scanning
    all 2^n: zero, then for each a, {a}, then each {a, b} (b < a) followed
    by its {a, b, c} (c < b)."""
    yield 0
    for a in range(n):
        yield 1 << a
        for b in range(a):
            yield 1 << a | 1 << b
            for c in range(b):
                yield 1 << a | 1 << b | 1 << c


def _sample_subbasis(rng: random.Random, n: int, cap_elements: int) -> list[int]:
    """Each small mask, then two random ones, kept with probability 1/2.
    A kept singleton {x} is a minimal open set U_x, so an atom of its own:
    the draw stops once they alone put the algebra over the cap."""
    extras = [rng.getrandbits(n), rng.getrandbits(n)]
    kept, singletons = [], set()
    for m in chain(_small_masks(n), extras):
        if rng.random() < 0.5:
            kept.append(m)
            if m.bit_count() == 1:
                singletons.add(m)
                if len(singletons) >= cap_elements.bit_length():
                    raise over_cap(f"at least {1 << len(singletons)}", cap_elements)
    return kept


def _failures_from(system: str, checks: tuple[CheckResult, ...]) -> list[dict]:
    return [{"system": system, "check": r.name, "witness": list(r.witness)} for r in checks if not r.passed]


def _run_trial(args: argparse.Namespace, trial: int) -> dict:
    rng = random.Random(args.seed * TRIAL_SEED_STRIDE + trial)
    n = rng.randint(1, args.max_universe)
    subbasis = _sample_subbasis(rng, n, args.cap_elements)
    labels = [str(i) for i in range(n)]
    topo = generate_topology(n, [PointSet(n, m) for m in subbasis])
    algebra = rc_algebra(topo, cap_elements=args.cap_elements)
    covering = eca_from_rc(algebra)
    eca = check_eca(covering)
    failures = _failures_from("ECA", eca.results)
    if eca.all_passed:
        failures += _failures_from("CA", check_ca(derived_contact(covering)).results)
    failures += _failures_from("RCL", check_relative_contact_laws(covering).results)
    failures += _failures_from("CONS", check_weca_consequences(covering).results)
    for kind, builder in (("type1", build_type1), ("type2", build_type2)):
        failures += _failures_from(kind, verify_embedding(builder(covering, algebra.point_signatures)).results)
    return {
        "trial": trial,
        "universe": n,
        "subbasis": [
            sorted(labels[i] for i in range(n) if m >> i & 1) for m in subbasis
        ],
        "passed": not failures,
        "failures": failures,
    }


def cmd_random(args: argparse.Namespace) -> int:
    trials = [_run_trial(args, t) for t in range(args.trials)]
    passed = sum(1 for t in trials if t["passed"])
    counterexample = next(({"trial": t["trial"], "failure": t["failures"][0]} for t in trials if not t["passed"]), None)
    out = {
        "command": "random",
        "seed": args.seed,
        "max_universe": args.max_universe,
        "total": len(trials),
        "passed": passed,
        "failed": len(trials) - passed,
        "all_passed": passed == len(trials),
        "first_counterexample": counterexample,
        "trials": trials,
    }
    if args.output_json:
        _emit_json(out)
    else:
        for t in trials:
            verdict = "pass" if t["passed"] else "FAIL"
            basis = "; ".join(_set_text(s) for s in t["subbasis"]) or "(empty)"
            print(f"trial {t['trial']}: n={t['universe']} subbasis {basis} -> {verdict}")
            if args.verbose:
                for f in t["failures"]:
                    print(f"    {f['system']} {f['check']} witness {f['witness']}")
        print(f"seed {args.seed}: {passed}/{len(trials)} trials passed")
    return 0 if out["all_passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@cache  # built once per process: building costs about as much as a small command
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="mereotop",
        description="Finite mereotopology: regular closed algebras, covering axioms, "
        "and verified frame representations.",
    )
    # one parent parser per shared flag; each command takes only the flags it reads
    input_file, json_out, verbose, cap = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    input_file.add_argument("--input", dest="input_path", metavar="FILE", help="JSON input document")
    json_out.add_argument("--json", dest="output_json", action="store_true", help="canonical JSON output")
    verbose.add_argument("--verbose", action="store_true", help="include tables/diffs")
    cap.add_argument(
        "--cap-elements", dest="cap_elements", type=int, default=DEFAULT_CAP_ELEMENTS, metavar="N",
        help=f"override the exhaustive-check element cap (default {DEFAULT_CAP_ELEMENTS})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=text, parents=parents)
        for name, text, parents in (
            ("rc", "regular closed algebra of a topology", [input_file, json_out, verbose, cap]),
            ("check-axioms", "axiom systems of a covering", [input_file, json_out, cap]),
            ("represent", "run a representation pipeline", [input_file, json_out, cap]),
            ("example1", "built-in two-space demonstration", [json_out, verbose]),
            ("random", "seeded random verification campaign", [json_out, verbose, cap]),
        )
    }
    commands["represent"].add_argument(
        "--kind", required=True, choices=["parametrized", "type1", "type2"]
    )
    rand = commands["random"]
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--trials", type=int, default=10)
    rand.add_argument(
        "--max-universe", dest="max_universe", type=int, default=DEFAULT_MAX_UNIVERSE
    )
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser would.  When the first word names a
    command, that command's parser alone reads the rest: the top-level pass
    would hand it the same strings.  Any other line, and one that the
    command's parser leaves strings of, goes through the full parser, so
    usage text and error messages are the full parser's."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def _check_flags(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Reject out-of-range flag values as usage errors, and warn about a cap
    above the default."""
    cap = getattr(args, "cap_elements", DEFAULT_CAP_ELEMENTS)
    if cap < 1:
        parser.error("--cap-elements must be positive")
    if cap > DEFAULT_CAP_ELEMENTS:
        print(
            f"warning: --cap-elements {cap} above the default "
            f"{DEFAULT_CAP_ELEMENTS}; exhaustive checks may run long",
            file=sys.stderr,
        )
    if getattr(args, "trials", 0) < 0:
        parser.error("--trials must be nonnegative")
    universe = getattr(args, "max_universe", 1)
    if universe < 1:
        parser.error("--max-universe must be positive")
    if universe >= 1 << 31:  # random.getrandbits takes its bit count as a C int
        parser.error("--max-universe must be below 2^31")
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be nonnegative")


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "rc": cmd_rc,
    "check-axioms": cmd_check_axioms,
    "represent": cmd_represent,
    "example1": cmd_example1,
    "random": cmd_random,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        _check_flags(args, build_parser())
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, MemoryError) as err:  # DocumentError and CapExceeded are ValueErrors
        print(f"error: {err or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
