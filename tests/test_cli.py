"""Command-line interface: routing, exit codes, JSON report shapes, and
byte-identical reruns."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from example_data import (
    X_DOC,
    X_OPEN_COUNT,
    X_SUBBASIS_MASKS,
    XP_DOC,
    build,
    covering_document,
    slice_generated_covering,
    zero_sided_covering,
)
from mereotop import (
    CoveringRelation,
    FiniteBooleanAlgebra,
    FiniteTopology,
    check_eca,
    discrete_covering,
    eca_from_rc,
    labeled_topology_from_document,
    rc_algebra,
    signatures,
)
from mereotop import cli as cli_module
from mereotop.algebra import checks_document
from mereotop.cli import EXAMPLE_CONCLUSION, main


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(X_DOC))
    return str(path)


@pytest.fixture
def discrete_file(tmp_path):
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps({"atoms": 2, "covering_mode": "discrete"}))
    return str(path)


@pytest.fixture
def broken_covering_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"atoms": 1, "covering": []}))
    return str(path)


@pytest.fixture
def star_file(tmp_path, monkeypatch):
    # One core and 30 members {core, arm}: 2^30 + 1 opens and one atom.
    # Listing the opens would exhaust memory, so asking for them fails.
    def no_opens(topology):
        raise AssertionError("the open family was enumerated")

    monkeypatch.setattr(FiniteTopology, "opens", property(no_opens))
    names = ["core"] + [f"arm{i}" for i in range(30)]
    path = tmp_path / "star.json"
    path.write_text(
        json.dumps({"universe": names, "subbasis": [["core", arm] for arm in names[1:]]})
    )
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# routing and exit codes


# command lines whose parse main() must take exactly as the full parser
# would: namespace, exit code, stdout and stderr
PARSE_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["frobnicate"],
    ["rand"],
    ["--json", "random"],
    ["--help", "random"],
    ["rc", "--input", "space.json"],
    ["rc", "--input", "space.json", "--json", "--verbose", "--cap-elements", "8"],
    ["check-axioms", "--input", "space.json", "--json"],
    ["represent", "--kind", "type2", "--input", "space.json"],
    ["represent", "--kind=parametrized", "--input=space.json", "--json"],
    ["example1"],
    ["example1", "--json", "--verbose"],
    ["random"],
    ["random", "--seed", "7", "--trials", "1", "--json"],
    *([command, flag] for command in ("rc", "check-axioms", "represent", "example1", "random") for flag in ("-h", "--help")),
    # abbreviations and the --opt=value form
    ["random", "--tri", "3", "--max", "4", "--js"],
    ["random", "--seed=5", "--trials=2", "--max-universe=3"],
    ["rc", "--in", "space.json", "--cap", "8", "--verb"],
    ["check-axioms", "--in=space.json", "--cap=16"],
    ["random", "--he"],
    # repeated flags
    ["random", "--seed", "1", "--seed", "2"],
    ["example1", "--json", "--json"],
    ["represent", "--kind", "type1", "--kind", "type2", "--input", "space.json"],
    # invalid values
    ["random", "--trials", "x"],
    ["random", "--seed", "-1"],
    ["random", "--seed=-1"],
    ["random", "--seed"],
    ["rc", "--cap-elements", "1.5"],
    ["represent", "--kind", "type3", "--input", "space.json"],
    ["represent", "--input", "space.json"],
    ["represent", "--kind"],
    # a flag the command does not read, a stray positional, and --
    ["example1", "--cap-elements", "8"],
    ["random", "--input", "space.json"],
    ["check-axioms", "--input", "space.json", "--verbose"],
    ["random", "extra"],
    ["example1", "x", "--json"],
    ["random", "random"],
    ["random", "-"],
    ["random", "-x"],
    ["random", "--"],
    ["random", "--", "--seed", "1"],
    ["random", "--seed", "1", "--"],
]

# the words of random command lines, valid and not
PARSE_WORDS = [
    "rc", "check-axioms", "represent", "example1", "random", "-h", "--help", "--",
    "--json", "--js", "--verbose", "--input", "--in", "--kind", "type2", "type3",
    "--seed", "--seed=2", "--trials", "--tri", "--max-universe", "--max", "--cap-elements",
    "--cap", "1", "-1", "x", "-",
]


def parse_outcome(parse, argv):
    """What ``parse(argv)`` returns or exits with, and what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exit_:
            result = exit_.code
    return result, out.getvalue(), err.getvalue()



class TestRouting:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_input(self, capsys):
        assert main(["rc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonexistent_file(self, capsys):
        assert main(["rc", "--input", "/no/such/file.json"]) == 2

    def test_directory_input_is_input_error(self, tmp_path, capsys):
        assert main(["rc", "--input", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unreadable_file_is_input_error(self, topo_file, monkeypatch, capsys):
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr("mereotop.cli.open", refuse, raising=False)
        assert main(["rc", "--input", topo_file]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["rc", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize(
        "argv",
        [["rc"], ["check-axioms"], ["represent", "--kind", "type2"]],
        ids=["rc", "axioms", "type2"],
    )
    def test_non_utf8_document_names_the_file(self, argv, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"universe": ["é"], "subbasis": []}'.encode("latin-1"))
        assert main([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid JSON in {path}: byte 0xe9 at position 15 is not UTF-8 (invalid continuation byte)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["rc"],
            ["check-axioms"],
            ["represent", "--kind", "type1"],
            ["represent", "--kind", "type2"],
            ["represent", "--kind", "parametrized"],
        ],
        ids=["rc", "axioms", "type1", "type2", "parametrized"],
    )
    def test_deeply_nested_json_is_input_error(self, argv, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main([*argv, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_wrong_document_kind(self, discrete_file, capsys):
        assert main(["rc", "--input", discrete_file]) == 2

    @pytest.mark.parametrize("body", [{"something": 1}, {"worlds": 3}], ids=["something", "worlds"])
    @pytest.mark.parametrize(
        "argv", [["rc"], ["check-axioms"], ["represent", "--kind", "type2"]], ids=["rc", "axioms", "type2"]
    )
    def test_unrecognized_document(self, argv, body, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(body))
        assert main([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            'error: unrecognized document: expected "universe" (topology) or "atoms" (covering)\n'
        )

    def test_represent_requires_kind(self, topo_file, capsys):
        assert main(["represent", "--input", topo_file]) == 2

    def test_bad_flag_values(self, capsys):
        for argv, message in (
            (["random", "--trials", "-1"], "--trials must be nonnegative"),
            (["random", "--max-universe", "0"], "--max-universe must be positive"),
            # random.getrandbits takes a C int: refused before any draw
            (["random", "--max-universe", str(2**31)], "--max-universe must be below 2^31"),
            (["random", "--max-universe", str(10**30)], "--max-universe must be below 2^31"),
            (["rc", "--cap-elements", "0"], "--cap-elements must be positive"),
            (["random", "--seed", "-1"], "--seed must be nonnegative"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err == (
                "usage: mereotop [-h] {rc,check-axioms,represent,example1,random} ...\n"
                f"mereotop: error: {message}\n"
            ), argv

    @pytest.mark.parametrize(
        "argv,unread",
        [
            (["check-axioms", "--input", "FILE"], ["--verbose"]),
            (["represent", "--kind", "type2", "--input", "FILE"], ["--verbose"]),
            (["example1"], ["--input", "FILE"]),
            (["example1"], ["--cap-elements", "8"]),
            (["random", "--trials", "1"], ["--input", "FILE"]),
        ],
        ids=["axioms-verbose", "represent-verbose", "example1-input", "example1-cap", "random-input"],
    )
    def test_unread_flag_is_a_usage_error(self, argv, unread, topo_file, capsys):
        # each command takes --json and only the flags it reads; without the
        # unread flag the same command runs
        argv, unread = ([topo_file if arg == "FILE" else arg for arg in args] for args in (argv, unread))
        assert main(argv + unread) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"mereotop: error: unrecognized arguments: {' '.join(unread)}\n")
        assert main(argv) == 0

    def test_cap_too_small_is_input_error(self, topo_file, capsys):
        assert main(["rc", "--input", topo_file, "--cap-elements", "4"]) == 2

    def test_cap_above_default_warns(self, topo_file, capsys):
        assert main(["rc", "--input", topo_file, "--cap-elements", "128"]) == 0
        assert "warning:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_parse_matches_the_full_parser(self, argv):
        assert parse_outcome(cli_module._parse, argv) == parse_outcome(cli_module.build_parser().parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(PARSE_WORDS), max_size=6))
    def test_parse_matches_the_full_parser_on_word_lists(self, argv):
        assert parse_outcome(cli_module._parse, argv) == parse_outcome(cli_module.build_parser().parse_args, argv)

    def test_valid_command_line_skips_the_top_level_parser(self, monkeypatch, capsys):
        # the command's own parser reads a valid line; only usage errors and
        # lines without a command reach the full parser
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser read a valid command line")

        parser = cli_module.build_parser()
        monkeypatch.setattr(parser, "parse_args", refuse)
        monkeypatch.setattr(parser, "parse_known_args", refuse)
        assert main(["random", "--seed", "3", "--trials", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 1

    @pytest.mark.parametrize(
        "argv,code,stream,head",
        [
            (["random", "--seed", "3", "--trials", "1", "--json"], 0, "out", '{\n  "all_passed": true,'),
            (["--help"], 0, "out", "usage: mereotop [-h] {"),
            (["random", "--help"], 0, "out", "usage: mereotop random [-h]"),
            (["random", "--trials", "1", "--bogus"], 2, "err", "usage: mereotop [-h] {"),
            ([], 2, "err", "usage: mereotop [-h] {"),
        ],
        ids=["random", "help", "random-help", "bogus", "empty"],
    )
    def test_no_argv_reads_sys_argv(self, argv, code, stream, head, monkeypatch, capsys):
        # the console script calls main() with no argument
        monkeypatch.setattr(sys, "argv", ["mereotop", *argv])
        assert main() == code
        assert getattr(capsys.readouterr(), stream).startswith(head)


class TestOversizedInputFailsFast:
    """Inputs over --cap-elements exit 2 with one error line, before any
    2^k-sized table or carrier is built."""

    @pytest.mark.parametrize(
        "argv", [["check-axioms"], ["represent", "--kind", "parametrized"]], ids=["axioms", "pframe"]
    )
    @pytest.mark.parametrize(
        "body",
        [
            {"atoms": 40, "covering_mode": "discrete"},
            {"atoms": 40, "covering": [[0, 0, 0]]},
            {"atoms": 10**12, "covering_mode": "discrete"},
        ],
        ids=["discrete40", "triples40", "discrete1e12"],
    )
    def test_covering_over_the_cap(self, argv, body, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(body))
        assert main([*argv, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["check-axioms"], ["represent", "--kind", "parametrized"]], ids=["axioms", "pframe"]
    )
    def test_covering_just_over_the_cap_keeps_its_message(self, argv, tmp_path, capsys):
        path = tmp_path / "seven.json"
        path.write_text(json.dumps({"atoms": 7, "covering_mode": "discrete"}))
        assert main([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: 128 elements exceed the exhaustive-check cap of 64; "
            "pass a larger --cap-elements to force the check\n"
        )

    @pytest.mark.parametrize(
        "argv", [["check-axioms"], ["represent", "--kind", "parametrized"]], ids=["axioms", "pframe"]
    )
    def test_plain_head_over_the_cap_is_refused_unparsed(self, argv, tmp_path, capsys, monkeypatch):
        # the head {"atoms": 8, "covering": is enough: the JSON reader never runs
        parsed = []
        parse_json = cli_module._parse_json

        def spy(raw, path):
            parsed.append(path)
            return parse_json(raw, path)

        monkeypatch.setattr(cli_module, "_parse_json", spy)
        path = tmp_path / "eight.json"
        path.write_text(json.dumps({"atoms": 8, "covering": [[0, 0, 0]]}))
        assert main([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: 256 elements exceed the exhaustive-check cap of 64; "
            "pass a larger --cap-elements to force the check\n"
        )
        assert parsed == []

    @pytest.mark.parametrize(
        "argv", [["rc"], ["check-axioms"], ["represent", "--kind", "type2"]], ids=["rc", "axioms", "type2"]
    )
    def test_space_over_the_cap_builds_no_carrier(self, argv, tmp_path, capsys, monkeypatch):
        # a 12-point discrete space has 12 atoms, so 4096 carrier elements
        def no_carrier(*args, **kwargs):
            raise AssertionError("the regular closed carrier was built")

        monkeypatch.setattr("mereotop.topology.RegularClosedAlgebra", no_carrier)
        names = [f"p{i}" for i in range(12)]
        path = tmp_path / "discrete12.json"
        path.write_text(json.dumps({"universe": names, "subbasis": [[p] for p in names]}))
        assert main([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: 4096 elements exceed the exhaustive-check cap of 64; "
            "pass a larger --cap-elements to force the check\n"
        )

    @pytest.mark.parametrize(
        "argv", [["rc"], ["check-axioms"], ["represent", "--kind", "type2"]], ids=["rc", "axioms", "type2"]
    )
    def test_wide_discrete_space_names_its_size_as_a_power(self, argv, tmp_path, capsys):
        # 300 atoms: the message writes 2^300, not its 91 digits
        names = [f"p{i}" for i in range(300)]
        path = tmp_path / "discrete300.json"
        path.write_text(json.dumps({"universe": names, "subbasis": [[p] for p in names]}))
        assert main([*argv, "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: 2^300 elements exceed the exhaustive-check cap of 64; "
            "pass a larger --cap-elements to force the check\n"
        )


# ---------------------------------------------------------------------------
# fuzzed documents

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
JUNK_COVERINGS = st.fixed_dictionaries(
    {"atoms": st.integers(-2, 9) | st.sampled_from([2**40, 10**12]) | JSON_VALUES},
    optional={
        "covering": st.lists(st.lists(st.integers(-2, 70) | JSON_VALUES, max_size=4), max_size=8)
        | JSON_VALUES,
        "covering_mode": st.sampled_from(["discrete", "dense"]) | JSON_VALUES,
    },
)
# coverings of up to 6 atoms (the default cap), some triples one past the range
COVERINGS = st.integers(1, 6).flatmap(
    lambda k: st.fixed_dictionaries(
        {
            "atoms": st.just(k),
            "covering": st.lists(st.lists(st.integers(0, 1 << k), min_size=3, max_size=3), max_size=60),
        }
    )
)
JUNK_SPACES = st.fixed_dictionaries(
    {"universe": st.lists(st.text(max_size=2) | JSON_VALUES, max_size=6) | JSON_VALUES},
    optional={"subbasis": st.lists(st.lists(st.text(max_size=2) | JSON_VALUES, max_size=4), max_size=4)},
)
# spaces of up to 8 points, now and then naming a label outside the universe
SPACES = st.integers(1, 8).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "universe": st.just([f"p{i}" for i in range(n)]),
            "subbasis": st.lists(
                st.lists(st.sampled_from([f"p{i}" for i in range(n)] + ["stranger"]), max_size=n),
                max_size=6,
            ),
        }
    )
)
# up to 300 points: as many atoms as points (over the cap past 6), or a
# star of one core and its arms (one atom and 2^arms + 1 opens)
WIDE_SPACES = st.integers(1, 300).map(
    lambda n: {
        "universe": [f"p{i}" for i in range(n)],
        "subbasis": [[f"p{i}", f"p{(i * 7 + 1) % n}"] for i in range(n)],
    }
) | st.integers(1, 300).map(
    lambda n: {
        "universe": ["core"] + [f"arm{i}" for i in range(n)],
        "subbasis": [["core", f"arm{i}"] for i in range(n)],
    }
)
DOCUMENTS = (
    st.one_of(JUNK_COVERINGS, COVERINGS, JUNK_SPACES, SPACES, WIDE_SPACES).map(json.dumps)
    | JSON_VALUES.map(json.dumps)
    | st.text(max_size=30)
    | st.binary(max_size=30).map(lambda raw: raw.decode("latin-1"))
)


class TestFuzzedDocuments:
    """Malformed and oversized documents never raise out of ``main``: every
    command exits 0, 1 or 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rc"],
            ["rc", "--verbose"],
            ["check-axioms"],
            ["represent", "--kind", "type1"],
            ["represent", "--kind", "type2"],
            ["represent", "--kind", "parametrized"],
        ],
        ids=["rc", "rc-verbose", "axioms", "type1", "type2", "parametrized"],
    )
    @given(text=DOCUMENTS)
    @settings(max_examples=100, deadline=None)
    def test_exit_code_is_0_1_or_2(self, argv, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--json", "--input", str(path)]) in (0, 1, 2)


class TestPlainCoveringDocuments:
    """A plain {"atoms": k, "covering": [...]} document is read straight from
    its bytes, with no JSON parse, and reports as the parsed document does."""

    @pytest.mark.parametrize(
        "argv",
        [["check-axioms", "--json"], ["represent", "--kind", "parametrized", "--json"]],
        ids=["axioms", "parametrized"],
    )
    @pytest.mark.parametrize(
        "k,zero_sided,code", [(3, False, 0), (5, False, 0), (3, True, 1)], ids=["discrete3", "discrete5", "zero-sided3"]
    )
    def test_read_without_json(self, argv, k, zero_sided, code, tmp_path, monkeypatch, capsys):
        n = 1 << k
        triples = [
            [a, b, d]
            for a in range(n)
            for b in range(n)
            for d in range(n)
            if (a == 0 or b == 0 if zero_sided else a & b & ~d == 0)
        ]
        plain, parsed = tmp_path / "plain.json", tmp_path / "parsed.json"
        plain.write_text(json.dumps({"atoms": k, "covering": triples}))
        parsed.write_text(json.dumps({"covering": triples, "atoms": k}))  # not plain: key order
        expected = main([*argv, "--input", str(parsed)]), capsys.readouterr()

        def no_parse(*args, **kwargs):
            raise AssertionError("the document was parsed as JSON")

        monkeypatch.setattr(json, "load", no_parse)
        monkeypatch.setattr(json, "loads", no_parse)
        assert (main([*argv, "--input", str(plain)]), capsys.readouterr()) == expected
        assert expected[0] == (code if argv[0] == "check-axioms" else 0)


# ---------------------------------------------------------------------------
# rc


class TestRcCommand:
    def test_json_report(self, topo_file, capsys):
        code, doc = run_json(capsys, ["rc", "--input", topo_file, "--json"])
        assert code == 0
        assert doc["open_sets"] == X_OPEN_COUNT
        assert doc["carrier_size"] == 8
        assert doc["atom_indices"] == [1, 2, 4]
        assert doc["carrier"][0]["points"] == []
        assert doc["carrier"][-1]["points"] == list("1234567")
        assert all(row["internally_connected"] for row in doc["carrier"])

    def test_verbose_includes_tables(self, topo_file, capsys):
        code, doc = run_json(capsys, ["rc", "--input", topo_file, "--json", "--verbose"])
        assert code == 0
        assert len(doc["contact"]) == 8
        assert doc["contact"][0] == [False] * 8
        assert [0, 0, 0] in doc["covering"]

    def test_verbose_covering_generates_the_table_once(self, topo_file, capsys, monkeypatch):
        # the covering's table is generated only for its true triples, once,
        # and they are the literal ones: A ∩ B ⊆ D over carrier indices
        from mereotop import algebra as algebra_module

        calls = []
        generate = algebra_module._covering_of_slices

        def counted(slices, k):
            calls.append(k)
            return generate(slices, k)

        monkeypatch.setattr(algebra_module, "_covering_of_slices", counted)
        code, doc = run_json(capsys, ["rc", "--input", topo_file, "--json", "--verbose"])
        carrier = rc_algebra(labeled_topology_from_document(X_DOC).topology).carrier
        literal = [
            [i, j, l]
            for i, a in enumerate(carrier)
            for j, b in enumerate(carrier)
            for l, d in enumerate(carrier)
            if a.bits & b.bits & ~d.bits == 0
        ]
        assert code == 0 and calls == [3] and doc["covering"] == literal

    def test_text_output(self, topo_file, capsys):
        assert main(["rc", "--input", topo_file]) == 0
        out = capsys.readouterr().out
        assert "regular closed carrier: 8 elements, 3 atoms" in out

    def test_wide_star_counts_its_opens_without_listing_them(self, star_file, capsys):
        code, doc = run_json(capsys, ["rc", "--json", "--input", star_file])
        assert code == 0
        assert doc["open_sets"] == 2**30 + 1
        assert doc["carrier_size"] == 2

    def test_discrete_two_points_has_four_elements(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"universe": ["a", "b"], "subbasis": [["a"], ["b"]]}))
        code, doc = run_json(capsys, ["rc", "--input", str(path), "--json"])
        assert code == 0
        assert doc["carrier_size"] == 4

    def test_repeated_labels_change_nothing(self, tmp_path, capsys):
        # a member's mask keeps OR semantics: a label repeated inside a
        # member, or a member listed twice, adds nothing to the space
        plain = {"universe": list("abcdef"), "subbasis": [["a", "b"], ["b", "c", "d"], ["e"]]}
        repeated = [
            {**plain, "subbasis": [["a", "b", "a", "a"], ["d", "b", "c", "b", "d"], ["e", "e"]]},
            {**plain, "subbasis": [["a", "b"], ["b", "c", "d"], ["e"], ["b", "c", "d"], ["a", "b"]]},
        ]
        reports = []
        for i, doc in enumerate([plain, *repeated]):
            path = tmp_path / f"space{i}.json"
            path.write_text(json.dumps(doc))
            assert main(["rc", "--json", "--verbose", "--input", str(path)]) == 0
            reports.append(capsys.readouterr().out)
            neighbourhoods = labeled_topology_from_document(doc).topology.neighbourhoods
            assert neighbourhoods == labeled_topology_from_document(plain).topology.neighbourhoods
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_unknown_label_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad_label.json"
        path.write_text(json.dumps({"universe": ["a"], "subbasis": [["zz"]]}))
        assert main(["rc", "--input", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-axioms


class TestCheckAxiomsCommand:
    def test_mutated_discrete_covering_names_witness(self, tmp_path, capsys):
        triples = [
            [a, b, d]
            for a in range(4)
            for b in range(4)
            for d in range(4)
            if (a & b) & ~d == 0 and (a, b, d) != (3, 3, 3)
        ]
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps({"atoms": 2, "covering": triples}))
        code, doc = run_json(capsys, ["check-axioms", "--input", str(path), "--json"])
        assert code == 1
        assert doc["all_passed"] is False
        witnesses = [
            check["witness"]
            for system in doc["systems"]
            for check in system.get("checks", [])
            if not check["pass"]
        ]
        assert witnesses and all(w is not None for w in witnesses)
    def test_topology_input_all_pass(self, topo_file, capsys):
        code, doc = run_json(capsys, ["check-axioms", "--input", topo_file, "--json"])
        assert code == 0
        assert doc["all_passed"] is True
        names = [s["name"] for s in doc["systems"]]
        assert names == ["WECA", "ECA", "CA"]
        weca_checks = doc["systems"][0]["checks"]
        assert [c["name"] for c in weca_checks] == ["WECA1", "WECA2", "WECA3", "WECA4"]
        assert all(c["pass"] for system in doc["systems"] for c in system["checks"])

    def test_covering_input(self, discrete_file, capsys):
        code, doc = run_json(capsys, ["check-axioms", "--input", discrete_file, "--json"])
        assert code == 0
        assert doc["all_passed"] is True

    def test_failing_covering_exits_one_and_skips_ca(self, broken_covering_file, capsys):
        code, doc = run_json(
            capsys, ["check-axioms", "--input", broken_covering_file, "--json"]
        )
        assert code == 1
        assert doc["all_passed"] is False
        ca = doc["systems"][2]
        assert ca["name"] == "CA" and ca.get("skipped") is True
        witnessed = [
            c
            for system in doc["systems"]
            if "checks" in system
            for c in system["checks"]
            if not c["pass"]
        ]
        assert witnessed and all(c["witness"] is not None for c in witnessed)

    def test_zero_sided_eight_atoms(self, tmp_path, capsys):
        # (a, b) |- d iff a = 0 or b = 0: 131 072 triples, every (a, b) row
        # all-true or all-false, so ECA2 needs no matmul at N = 256
        triples = [[a, b, d] for a in range(256) for b in range(256) if a == 0 or b == 0 for d in range(256)]
        path = tmp_path / "zero8.json"
        path.write_text(json.dumps({"atoms": 8, "covering": triples}))
        code, doc = run_json(capsys, ["check-axioms", "--cap-elements", "256", "--input", str(path), "--json"])
        assert code == 1
        failed = {c["name"]: c["witness"] for s in doc["systems"] for c in s.get("checks", []) if not c["pass"]}
        assert failed == {"ECA1": [0, 0, 1, 1, 0], "ECA3": [1, 1, 1]}
        assert doc["systems"][2].get("skipped") is True

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 16.0 GiB"), MemoryError()])
    def test_out_of_memory_is_one_error_line(self, error, discrete_file, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_module, "check_eca", exhausted)
        assert main(["check-axioms", "--input", discrete_file, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error or 'out of memory'}\n"


# ---------------------------------------------------------------------------
# represent


class TestRepresentCommand:
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_topology_pipelines(self, kind, topo_file, capsys):
        code, doc = run_json(
            capsys, ["represent", "--kind", kind, "--input", topo_file, "--json"]
        )
        assert code == 0
        assert doc["pipeline"] == kind
        assert doc["mode"] == "exhaustive"
        assert doc["frame"]["kind"] == kind
        assert doc["frame"]["worlds"] == 12
        names = [c["name"] for c in doc["checks"]]
        assert "preserves-covering" in names
        assert ("preserves-internal-connectedness" in names) == (kind == "type2")
        assert all(c["pass"] for c in doc["checks"])
        assert set(doc["embedding"]) == {str(m) for m in range(8)}

    @pytest.mark.parametrize("shape", ["indiscrete", "chain"])
    def test_universes_of_64_or_more_points(self, shape, tmp_path, capsys):
        names = [f"p{i}" for i in range(70)]
        subbasis = [] if shape == "indiscrete" else [names[:i] for i in range(1, 70)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"universe": names, "subbasis": subbasis}))
        code, doc = run_json(
            capsys, ["represent", "--kind", "type2", "--input", str(path), "--json"]
        )
        assert code == 0
        assert doc["frame"]["worlds"] == 70
        assert all(c["pass"] for c in doc["checks"])

    def test_wide_star_never_lists_its_opens(self, star_file, capsys):
        code, doc = run_json(
            capsys, ["represent", "--kind", "type2", "--json", "--input", star_file]
        )
        assert code == 0
        assert doc["frame"]["worlds"] == 31
        assert all(c["pass"] for c in doc["checks"])

    def test_parametrized_on_covering(self, discrete_file, capsys):
        code, doc = run_json(
            capsys,
            ["represent", "--kind", "parametrized", "--input", discrete_file, "--json"],
        )
        assert code == 0
        assert doc["pipeline"] == "parametrized"
        assert doc["frame"]["kind"] == "parametrized"
        assert doc["frame"]["worlds"] == 2

    def test_parametrized_on_topology(self, topo_file, capsys):
        code, doc = run_json(
            capsys, ["represent", "--kind", "parametrized", "--input", topo_file, "--json"]
        )
        assert code == 0
        assert doc["frame"]["worlds"] == 3

    @pytest.mark.parametrize("source", ["discrete", "topology", "derived"])
    @pytest.mark.parametrize("k", [5, 6])
    def test_parametrized_beyond_four_atoms(self, k, source, tmp_path, capsys):
        # k open points a_i, each pair of neighbours glued by a boundary
        # point b_i: k atoms, each in contact with its neighbours
        a = [f"a{i}" for i in range(k)]
        b = [f"b{i}" for i in range(k - 1)]
        space = {
            "universe": a + b,
            "subbasis": [[x] for x in a] + [[b[i], a[i], a[i + 1]] for i in range(k - 1)],
        }
        if source == "discrete":
            body = {"atoms": k, "covering_mode": "discrete"}
        elif source == "topology":
            body = space
        else:
            algebra = rc_algebra(labeled_topology_from_document(space).topology)
            body = covering_document(eca_from_rc(algebra))
        path = tmp_path / "source.json"
        path.write_text(json.dumps(body))
        code, doc = run_json(
            capsys, ["represent", "--kind", "parametrized", "--input", str(path), "--json"]
        )
        assert code == 0
        assert doc["mode"] == "exhaustive" and doc["frame"]["worlds"] == k
        assert len(doc["checks"]) == 5 and all(c["pass"] for c in doc["checks"])

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_parametrized_on_weak_tables(self, k, seed, tmp_path, capsys):
        # a weak algebra that fails the full axioms: its frame is read off
        # its atom slices
        covering = slice_generated_covering(k, 0, random.Random(f"{k}:{seed}"))
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(covering_document(covering)))
        code, doc = run_json(
            capsys, ["represent", "--kind", "parametrized", "--input", str(path), "--json"]
        )
        assert code == 0
        assert doc["frame"]["worlds"] == k
        assert len(doc["checks"]) == 5 and all(c["pass"] for c in doc["checks"])

    def test_parametrized_on_ten_atom_star_tabulates_no_covering(self, tmp_path, monkeypatch, capsys):
        # ten open cores and one boundary point in the closure of each: ten
        # atoms, 1024 elements, and a 1 GiB covering table that no step builds
        from mereotop import algebra as algebra_module
        from mereotop import frames as frames_module
        from mereotop import representations as representations_module

        def no_table(*args):
            raise AssertionError("an N³ covering table was built")

        monkeypatch.setattr(algebra_module, "_covering_of_slices", no_table)
        for module in (frames_module, representations_module):
            monkeypatch.setattr(module, "covering_table", no_table)
        cores = [f"c{i}" for i in range(10)]
        path = tmp_path / "star10.json"
        path.write_text(json.dumps({"universe": cores + ["b"], "subbasis": [[c] for c in cores]}))
        code, doc = run_json(
            capsys,
            ["represent", "--kind", "parametrized", "--cap-elements", "1024", "--input", str(path), "--json"],
        )
        assert code == 0
        assert doc["frame"]["worlds"] == 10 and len(doc["embedding"]) == 1024
        assert len(doc["checks"]) == 5 and all(c["pass"] for c in doc["checks"])

    def test_ten_atom_discrete_document_generates_no_table(self, tmp_path, monkeypatch, capsys):
        # the discrete covering is the covering of the single atoms: its
        # checks and its parametrized embedding pass on the family alone
        from mereotop import algebra as algebra_module

        def no_table(*args):
            raise AssertionError("an N³ covering table was generated")

        def operation_tables(*args):
            raise AssertionError("the N x N operation tables were built")

        def contact_table(*args):
            raise AssertionError("an N x N contact table was generated")

        monkeypatch.setattr(algebra_module, "_covering_of_slices", no_table)
        # an earlier test's cached atom matrices would hide a call
        algebra_module._atom_matrices.cache_clear()
        monkeypatch.setattr(algebra_module, "_tables", operation_tables)
        path = tmp_path / "discrete10.json"
        path.write_text(json.dumps({"atoms": 10, "covering_mode": "discrete"}))
        options = ["--cap-elements", "1024", "--input", str(path), "--json"]
        with monkeypatch.context() as patch:
            # the derived contact is decided on its atom relation, so no N x N
            # contact table is generated, nor the join-extension CA1/CA2 compare
            patch.setattr(algebra_module, "_join_extension", contact_table)
            code, doc = run_json(capsys, ["check-axioms", *options])
        assert code == 0 and doc["all_passed"]
        for kind in ("parametrized", "type1", "type2"):
            code, doc = run_json(capsys, ["represent", "--kind", kind, *options])
            assert code == 0 and len(doc["embedding"]) == 1024
            assert all(c["pass"] for c in doc["checks"])

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_type_pipelines_on_covering_documents(self, kind, tmp_path, capsys):
        # a covering document that passes the extended axioms is the covering
        # of its S*, whose members are the points of its model; one that
        # fails exits 1 with the failures check_eca reports
        derived = eca_from_rc(rc_algebra(build(7, X_SUBBASIS_MASKS)))
        flipped = derived.table.copy()
        flipped[1, 2, 1] = flipped[2, 1, 1] = False  # 1 is below 1, so (1, 2) must be covered by 1
        coverings = {
            "discrete": discrete_covering(3),
            # two open cores and a boundary point in both closures: S* = (1, 2, 3)
            "derived2": eca_from_rc(rc_algebra(build(3, [0b001, 0b010]))),
            "derived3": derived,
            "zero-sided": zero_sided_covering(2),
            "flipped": CoveringRelation(derived.algebra, flipped),
        }
        # each point of S*, in point order, by the indices of its atoms
        point_atoms = {
            "discrete": [[0], [1], [2]],
            "derived2": [[0], [1], [0, 1]],
            "derived3": [[0], [1], [0, 1], [2], [0, 2], [1, 2], [0, 1, 2]],
        }
        for name, covering in coverings.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(covering_document(covering)))
            argv = ["represent", "--kind", kind, "--input", str(path)]
            code, doc = run_json(capsys, [*argv, "--json"])
            report = check_eca(covering)
            if report.all_passed:
                assert name in point_atoms
                assert code == 0 and doc["pipeline"] == kind
                assert all(c["pass"] for c in doc["checks"])
                assert doc["frame"]["worlds"] == sum(s.bit_count() for s in signatures(covering))
                assert doc["frame"]["point_atoms"] == point_atoms[name]
                for world in doc["frame"]["worlds_detail"]:
                    assert world["atom_index"] in point_atoms[name][world["point"]]
                continue
            assert name in ("zero-sided", "flipped")
            assert code == 1
            assert doc == {
                "command": "represent",
                "pipeline": kind,
                "input_axioms": checks_document(report.results),
                "all_passed": False,
            }
            assert main(argv) == 1
            assert capsys.readouterr().out == "input covering fails the extended axioms:\n" + "".join(
                f"  {r.name}: FAIL at {r.witness}\n" for r in report.failures()
            )

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_type_pipelines_on_topology_documents(self, kind, tmp_path, capsys):
        # a labelled report lists each atom's sorted labels once, and each
        # world names its atom by index and its point by label
        names = [f"p{i}" for i in range(12)]
        spaces = {
            "example": cli_module.EXAMPLE_SPACE,
            "paper": X_DOC,
            "chain": {"universe": names, "subbasis": [names[: i + 1] for i in range(12)]},
            # atoms that overlap on boundary points
            "boundary": {"universe": names[:5], "subbasis": [["p0"], ["p1"], ["p0", "p1", "p2"], ["p3", "p4"]]},
        }
        for name, space in spaces.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(space))
            code, doc = run_json(capsys, ["represent", "--kind", kind, "--json", "--input", str(path)])
            labeled = labeled_topology_from_document(space)
            algebra = rc_algebra(labeled.topology)
            assert code == 0 and all(c["pass"] for c in doc["checks"])
            atom_labels = doc["frame"]["atom_labels"]
            assert atom_labels == [labeled.labels_of(atom) for atom in algebra.atoms]
            assert "point_atoms" not in doc["frame"]
            worlds = doc["frame"]["worlds_detail"]
            assert len(worlds) == doc["frame"]["worlds"] == sum(map(len, atom_labels))
            for world in worlds:
                assert set(world) == {"atom_index", "point"}
                assert world["point"] in atom_labels[world["atom_index"]]

    def test_labelled_report_grows_linearly(self, tmp_path, capsys):
        # a chain of n points has one atom and n worlds: the report lists the
        # n labels once, not once per world
        sizes = {}
        for n in (100, 200):
            names = [f"p{i}" for i in range(n)]
            path = tmp_path / f"chain{n}.json"
            path.write_text(json.dumps({"universe": names, "subbasis": [names[: i + 1] for i in range(n)]}))
            assert main(["represent", "--kind", "type2", "--json", "--input", str(path)]) == 0
            sizes[n] = len(capsys.readouterr().out)
        assert sizes[200] < 2.5 * sizes[100]

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_type_pipelines_refuse_a_source_that_is_no_eca(self, kind, topo_file, monkeypatch, capsys):
        # a space's covering is always an ECA, so the check is reached through
        # a source with one entry flipped: the atom 1 meets itself, yet (1, 1)
        # is covered by zero
        def flipped(algebra, **kwargs):
            covering = eca_from_rc(algebra, **kwargs)
            table = covering.table.copy()
            table[1, 1, 0] = True
            return CoveringRelation(covering.algebra, table)

        monkeypatch.setattr(cli_module, "eca_from_rc", flipped)
        argv = ["represent", "--kind", kind, "--input", topo_file]
        code, doc = run_json(capsys, [*argv, "--json"])
        assert code == 1 and doc["pipeline"] == kind and doc["all_passed"] is False
        assert [(c["name"], c["witness"]) for c in doc["input_axioms"] if not c["pass"]] == [
            ("ECA1", [1, 1, 0, 2, 0]),
            ("ECA2", [1, 1, 0, 0, 2]),
            ("ECA4", [1, 1, 0]),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "input covering fails the extended axioms:\n"
            "  ECA1: FAIL at (1, 1, 0, 2, 0)\n"
            "  ECA2: FAIL at (1, 1, 0, 0, 2)\n"
            "  ECA4: FAIL at (1, 1, 0)\n"
        )

    def test_parametrized_rejects_weak_axiom_failure(self, broken_covering_file, capsys):
        code, doc = run_json(
            capsys,
            [
                "represent",
                "--kind",
                "parametrized",
                "--input",
                broken_covering_file,
                "--json",
            ],
        )
        assert code == 1
        assert doc["all_passed"] is False
        assert any(not c["pass"] for c in doc["input_axioms"])


# ---------------------------------------------------------------------------
# example1


class TestExample1Command:
    def test_passes_with_conclusion(self, capsys):
        code, doc = run_json(capsys, ["example1", "--json"])
        assert code == 0
        assert doc["conclusion"] == EXAMPLE_CONCLUSION
        assert [c["name"] for c in doc["checks"]] == [
            "f-bijection",
            "f-preserves-zero",
            "f-preserves-complement",
            "f-preserves-join",
            "f-preserves-contact",
            "region-internally-connected",
            "primed-region-disconnected",
        ]
        assert all(c["pass"] for c in doc["checks"])
        assert doc["regions"]["X"]["internally_connected"] is True
        assert doc["regions"]["X_prime"]["internally_connected"] is False
        assert doc["contact_differences"] == []

    def test_text_mentions_conclusion(self, capsys):
        assert main(["example1"]) == 0
        assert EXAMPLE_CONCLUSION in capsys.readouterr().out

    def test_builtin_docs_match_frozen_spaces(self):
        from mereotop.cli import EXAMPLE_SPACE, EXAMPLE_SPACE_PRIME

        assert EXAMPLE_SPACE == X_DOC
        assert EXAMPLE_SPACE_PRIME == XP_DOC


# ---------------------------------------------------------------------------
# random


class TestExample1Verbose:
    def test_verbose_reports_no_contact_differences(self, capsys):
        assert main(["example1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "contact differences across f: 0" in out


class TestRandomCommand:
    def test_fifty_trial_campaign_passes(self, capsys):
        code, doc = run_json(
            capsys, ["random", "--seed", "1", "--trials", "50", "--json"]
        )
        assert code == 0
        assert doc["all_passed"] is True
        assert doc["passed"] == doc["total"] == 50

    def test_campaign_passes(self, capsys):
        code, doc = run_json(
            capsys, ["random", "--seed", "3", "--trials", "4", "--json"]
        )
        assert code == 0
        assert doc["all_passed"] is True
        assert doc["total"] == 4 and doc["passed"] == 4 and doc["failed"] == 0
        assert doc["first_counterexample"] is None
        assert [t["trial"] for t in doc["trials"]] == [0, 1, 2, 3]
        for t in doc["trials"]:
            assert 1 <= t["universe"] <= 5
            assert t["passed"] is True and t["failures"] == []

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["random", "--seed", "11", "--trials", "3", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_different_seeds_differ(self, capsys):
        code, doc_a = run_json(capsys, ["random", "--seed", "0", "--trials", "3", "--json"])
        code_b, doc_b = run_json(capsys, ["random", "--seed", "1", "--trials", "3", "--json"])
        assert doc_a["trials"] != doc_b["trials"]

    def test_zero_trials(self, capsys):
        code, doc = run_json(capsys, ["random", "--trials", "0", "--json"])
        assert code == 0
        assert doc["total"] == 0 and doc["all_passed"] is True

    @pytest.mark.parametrize("n", range(1, 13))
    def test_subbasis_matches_the_literal_pool(self, n):
        # the sampler's literal form: every mask of at most three points,
        # found by scanning all 2^n masks in ascending order
        def literal_sample(rng):
            pool = [m for m in range(1 << n) if m.bit_count() <= 3]
            pool += [rng.getrandbits(n), rng.getrandbits(n)]
            return [m for m in pool if rng.random() < 0.5]

        for seed in range(5):
            assert cli_module._sample_subbasis(random.Random(seed), n, 1 << n) == literal_sample(random.Random(seed))

    def test_wide_universes_return_at_once(self, capsys):
        # at 60 points the pool is built without scanning 2^60 masks; every
        # trial passes or its space exceeds the element cap (exit 2)
        started = time.perf_counter()
        code = main(["random", "--seed", "0", "--max-universe", "60", "--trials", "3"])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 10.0
        if code == 2:
            assert captured.err.startswith("error: ") and "exceed the exhaustive-check cap of 64" in captured.err
            assert captured.err.count("\n") == 1
        else:
            assert code == 0 and captured.out.endswith("3/3 trials passed\n")

    def test_wide_universe_stops_at_the_cap(self, capsys):
        # at 800 points the kept singletons reach the cap long before the
        # pool of C(800, <= 3) masks is drawn: exit 2 with one error line
        started = time.perf_counter()
        code = main(["random", "--max-universe", "800", "--trials", "1"])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 5.0
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: at least ") and captured.err.count("\n") == 1


# SHA-256 of "<exit code>\n<stdout>", each pinned on the release before the
# change it guards (the closed-form verification, the one verification
# call, example1's one record of checks): a change to a verdict, a witness
# or the report text shows here.  The type-1 and type-2 --json reports are
# pinned on the release that lists each atom's labels once (atom_labels),
# whose worlds map one to one onto the earlier report's.
PINNED_OUTPUT_SHA256 = {
    ("random", "--seed", "0", "--trials", "50", "--json"): "1873ab82b37e0a90e158ace52cf275136174a14cea7b3c34efe539d88d94c646",
    ("random", "--seed", "1", "--trials", "50", "--json"): "338d1f29ca0266f2cf809af58439e562a16921d65c4bf496b21a9b48e35ff9a6",
    ("random", "--seed", "2", "--trials", "50", "--json"): "55dc80e51391018c0ece0b9da81ee3625c7cde4ee339e04f5cf2b49a6bdaae4d",
    ("random", "--seed", "0", "--trials", "50", "--verbose"): "48597869e4ff13f045559b9d7be2e0d053530b72ea41296de49119ef528838bd",
    ("represent", "--kind", "type1"): "00542f94a73129f7e9afa70b64baad0974bbb244363233a1b0f8f82768ead009",
    ("represent", "--kind", "type2"): "e29d3743567b47d10ef613454ba8496ead2d7ceebc04d415aa65f0d2c3734518",
    ("represent", "--kind", "parametrized"): "1e102c5d60517508b29f02e191752d2d00573ff31232281c93af9eda8b132ae0",
    ("represent", "--kind", "type1", "--json"): "bff924d374eec8cfa1e50f7a2722098b4f831a1425eb93e3e3aba46f148645b2",
    ("represent", "--kind", "type2", "--json"): "e6e31c84832760bbeb20897d686db3e26ae017290c4562ecdc001424c3dd6244",
    ("represent", "--kind", "parametrized", "--json"): "e715b88d55ec127bb33225f910ed4247bb9fdf5aeaef6eabdde847a8b021c143",
    ("rc", "--json", "--verbose"): "36b37a489bcc2e088e176d02a10dcf4d68e2b4b9d98b3186120aa8a4f31cc951",
    ("example1",): "92b25803b0ff9b976f4747324114b0ba37968e4676ee50ce4e4a13a68081f644",
    ("example1", "--json"): "f2ef15333e4c94ed980b7cf99965e28233e07209e6739603a1f66c67263b4394",
    ("example1", "--verbose"): "7c2309fba19fd2e2ffd94e5c363f9ae8cc63acd9587a7d4019bb92e6a7177bd8",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("argv", sorted(PINNED_OUTPUT_SHA256), ids=" ".join)
    def test_exit_code_and_stdout(self, argv, tmp_path, capsys):
        args = list(argv)
        if argv[0] not in ("random", "example1"):  # neither reads --input
            path = tmp_path / "example.json"
            path.write_text(json.dumps(cli_module.EXAMPLE_SPACE))
            args += ["--input", str(path)]
        code = main(args)
        text = f"{code}\n{capsys.readouterr().out}"
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_OUTPUT_SHA256[argv]


def axioms_documents() -> dict[str, dict]:
    """check-axioms inputs at k = 2..4: discrete tables, a space and the
    coverings derived from spaces, zero-sided and slice-generated tables
    (weak only), flips that break ECA3 or ECA4, seeded flips of derived
    tables, and seeded random tables, which are not antitone."""
    docs: dict[str, dict] = {f"discrete{k}": {"atoms": k, "covering_mode": "discrete"} for k in (2, 3, 4)}
    docs["space3"] = X_DOC
    derived = {}
    for k, n, masks in ((2, 4, [3, 6, 12]), (3, 7, X_SUBBASIS_MASKS), (4, 6, [3, 6, 12, 24, 48])):
        derived[k] = eca_from_rc(rc_algebra(build(n, masks))).table
        docs[f"derived{k}"] = covering_document(CoveringRelation(FiniteBooleanAlgebra(k), derived[k]))
    tables = {}
    for k in (2, 3, 4):
        zero_sided = np.zeros((1 << k,) * 3, dtype=bool)
        zero_sided[0] = zero_sided[:, 0] = True
        tables[f"zero{k}"] = zero_sided
    eca3 = derived[3].copy()
    eca3[1, 2, 1] = eca3[2, 1, 1] = False  # 1 <= 1, so (1, 2) must be covered by 1
    eca4 = derived[4].copy()
    eca4[3, 3, 0] = True  # 3 & 3 is not below 0
    tables.update(eca3flip3=eca3, eca4flip4=eca4)
    for k in (2, 3, 4):
        rng = random.Random(k)
        tables[f"weak{k}"] = slice_generated_covering(k, 0, rng).table
        flipped = derived[k].copy()
        for _ in range(3):
            a, b, d = (rng.randrange(1 << k) for _ in range(3))
            flipped[a, b, d] = not flipped[a, b, d]
        tables[f"flips{k}"] = flipped
    for k in (2, 3):
        rng = random.Random(k)
        tables[f"random{k}"] = np.array([rng.random() < 0.8 for _ in range(1 << 3 * k)]).reshape((1 << k,) * 3)
    for name, table in tables.items():
        k = len(table).bit_length() - 1
        docs[name] = covering_document(CoveringRelation(FiniteBooleanAlgebra(k), table))
    return docs


# SHA-256 of "<exit code>\n<stdout>" of check-axioms --json, pinned from the
# release before the ECA rebuild read its family off the atom slices.
PINNED_AXIOMS_SHA256 = {
    "derived2": "715556ce08bfd552f4c4011b4bdfde9055358c384bdd115ce3fda960a3eccc91",
    "derived3": "ad3a5f807915a583cc2990ccee2420a473257a43ecd0cba1b035e790c79eec04",
    "derived4": "123f69c97b8a1512878f8e38d74d2e3908ffe37242b5e758ee98a1906656b7dd",
    "discrete2": "715556ce08bfd552f4c4011b4bdfde9055358c384bdd115ce3fda960a3eccc91",
    "discrete3": "ad3a5f807915a583cc2990ccee2420a473257a43ecd0cba1b035e790c79eec04",
    "discrete4": "123f69c97b8a1512878f8e38d74d2e3908ffe37242b5e758ee98a1906656b7dd",
    "eca3flip3": "a5aad69793eef262098a960354254abcb8665c9bcd1c47c975648ec25485f5a5",
    "eca4flip4": "ccba5c4de056fc0cf75aae636cfcd25d53bf0a79b0b4021968ef053ee0ca6ff0",
    "flips2": "0a428f5d4cf9e27edaa14ed04e25e326a4d60a9621479aeb314ddf18b1abc629",
    "flips3": "195a4a51c3fabcb136df7d721284d3014c951dcc507ae75bca730df203e005b5",
    "flips4": "0cd98e469fe8b4487cff4604fcb1fab155a8a411b076b5523883b5c14f1ac786",
    "random2": "32f5448724e9bd766d090de4ef6298f5928e2207527bd1720be928732b6dd969",
    "random3": "1c8d15c2c7706e56075d27257970821354ca9914e6aaa334393a65ef62ebf197",
    "space3": "226224ed7753344df08785a33dccf1eb250b618c109e7aead2907b9dcfc7e205",
    "weak2": "b7912fbbb60f21c3cc0d50136ef80ff665400d85479a2482dcdd2b404aea1b85",
    "weak3": "fee722110c862f7f515ac17ce4921f249e1fcd1d80760f7065b0743e714ea66b",
    "weak4": "be88370bb5ca9990045e7451dee30503480145c54cab87b1c4f2156d69e4a224",
    "zero2": "c55b3d25a0272260ffacbc2a6f2a7a37b8d6f2eaffcab2522c2010d3f6231749",
    "zero3": "7b462ac4f213a840f6725703aae4339811d383c8e8a003ca1a8436e77d75b1bc",
    "zero4": "b382dc1ec02f2f09e2c6c6246124df2ddad9f8c0828edf17bd05fb6340bd2a9b",
}


class TestPinnedAxioms:
    @pytest.mark.parametrize("name", sorted(PINNED_AXIOMS_SHA256))
    def test_exit_code_and_stdout(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(axioms_documents()[name]))
        code = main(["check-axioms", "--json", "--input", str(path)])
        text = f"{code}\n{capsys.readouterr().out}"
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_AXIOMS_SHA256[name]


# ---------------------------------------------------------------------------
# canonical JSON: every report is exactly json.dumps(doc, sort_keys=True, indent=2)


def stdlib_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# quotes, backslashes, control characters and non-ASCII text, in keys and values
JSON_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é\u2028€😀'), st.characters()),
    max_size=8,
)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True), JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS
    | st.lists(st.booleans(), max_size=4)
    | st.lists(st.booleans() | st.integers(), max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=24,
)

# keys with quotes, backslashes, non-ASCII text and "%", and the values a record may hold
RECORD_KEYS = st.lists(st.text(alphabet='%s"\\é€ab', max_size=4), min_size=1, max_size=4, unique=True)
RECORD_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), JSON_TEXT)


def record_of(keys, values=RECORD_SCALARS):
    return st.fixed_dictionaries({key: values for key in keys})


# lists of records with one key set and str/int/bool/None values (one type
# or several per key), one record among them possibly of another shape: a
# float or a list among its values, or a key set of its own
RECORD_LISTS = RECORD_KEYS.flatmap(
    lambda keys: st.builds(
        lambda before, one, after: [*before, one, *after],
        st.lists(record_of(keys), max_size=4),
        record_of(keys)
        | record_of(keys, RECORD_SCALARS | st.floats(allow_nan=False) | st.lists(st.integers(), max_size=2))
        | st.dictionaries(JSON_TEXT, RECORD_SCALARS, max_size=3)
        # every key of the others and more
        | st.builds(lambda record, more: {**more, **record}, record_of(keys), st.dictionaries(JSON_TEXT, RECORD_SCALARS, min_size=1, max_size=2)),
        st.lists(record_of(keys), max_size=4),
    )
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(
        JSON_VALUES
        | RECORD_LISTS.map(lambda records: {"records": records, "nested": [records, {"again": records}]})
    )
    def test_writer_matches_the_stdlib(self, value):
        assert cli_module._json_text(value, "") == stdlib_text(value)

    @given(JSON_VALUES)
    def test_one_object_at_two_depths(self, value):
        doc = {"top": value, "nested": [{"again": value}, [value]]}
        assert cli_module._json_text(doc, "") == stdlib_text(doc)

    @given(st.lists(JSON_TEXT, min_size=1, max_size=4) | st.lists(JSON_VALUES, min_size=1, max_size=3))
    def test_one_list_at_two_depths_under_two_keys(self, shared):
        doc = {
            "a": shared,
            "b": shared,
            "nested": [{"a": shared, "c": shared}, [shared, shared]],
            "worlds": [{"atom": shared, "point": str(p)} for p in range(3)],
        }
        assert cli_module._json_text(doc, "") == stdlib_text(doc)

    def test_shared_list_mutated_between_reports(self, capsys):
        labels = ["a", "b"]
        doc = {"worlds": [{"atom": labels}, {"atom": labels}, {"atom": labels}]}
        cli_module._emit_json(doc)
        before = stdlib_text(doc)
        labels.append("c")
        cli_module._emit_json(doc)
        assert capsys.readouterr().out == before + "\n" + stdlib_text(doc) + "\n"
        assert '"c"' in stdlib_text(doc) and '"c"' not in before

    @pytest.mark.parametrize(
        "value",
        [{}, [], (), [[]], [{}], {"": {}}, [True, False], [True, 1, 0, False], [1, -2, 10**30], ["", "a"]],
        ids=repr,
    )
    def test_edge_values(self, value):
        assert cli_module._json_text(value, "") == stdlib_text(value)

    @pytest.mark.parametrize(
        "argv,fixture",
        [
            (["rc"], "topo_file"),
            (["check-axioms"], "discrete_file"),
            (["check-axioms"], "broken_covering_file"),
            (["represent", "--kind", "type1"], "topo_file"),
            (["represent", "--kind", "type2"], "topo_file"),
            (["represent", "--kind", "parametrized"], "discrete_file"),
            (["example1"], None),
            (["random", "--seed", "5", "--trials", "3"], None),
        ],
        ids=["rc", "axioms-pass", "axioms-fail", "type1", "type2", "parametrized", "example1", "random"],
    )
    def test_every_report_is_canonical(self, argv, fixture, request, capsys):
        if fixture is not None:
            argv = argv + ["--input", request.getfixturevalue(fixture)]
        main(argv + ["--json"])
        out = capsys.readouterr().out
        assert stdlib_text(json.loads(out)) + "\n" == out


# ---------------------------------------------------------------------------
# console entry point


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mereotop.cli", "example1", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["conclusion"] == EXAMPLE_CONCLUSION
