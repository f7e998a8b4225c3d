"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that
- the literal axiom statements of the gate find the same first witness as
  the naive loops of ``tests/oracles.py``;
- corrupted op outputs (wrong exit code, a flipped verdict, a bogus witness
  or echoed fact) trip the correctness gate, while the real outputs pass;
- every workload prints, on its last line, exactly the metrics that
  ``BENCHMARK.json`` names, each with its unit, with and without tracing;
- traced spans nest (each child inside its parent, on the same op) and
  their calls and self times add up to the reported ones (exactly unless
  the span cap cut the record);
- in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

import gate
import inputs
import run
from inputs import ROOT, WORKLOADS, generate, require_program

OUT = ROOT / ".perfbench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def literal_matches_oracles() -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    rng = random.Random(0)
    tables = []
    for k in (1, 2):
        n = 1 << k
        for _ in range(20):
            tables.append(np.array([rng.random() < 0.8 for _ in range(n**3)]).reshape(n, n, n))
            derived = inputs.derived_covering(inputs.boundary_atoms(rng, k))
            tables += [derived, inputs.flipped_table(rng, derived)]
        tables += [gate.covering_table({"atoms": k, "covering_mode": "discrete"}), inputs.zero_sided_table(k)]
    for table in tables:
        n = len(table)
        v = table.tolist()
        expected = {**oracles.naive_check_weca(n, v), **oracles.naive_check_eca(n, v)}
        for name, (arity, violated) in gate.LITERAL.items():
            first = next((t for t in itertools.product(range(n), repeat=arity) if violated(table, *t)), None)
            check(first == expected[name], f"{name}: literal first witness {first}, oracle {expected[name]}")
    print(f"ok literal statements agree with tests/oracles.py on {len(tables)} tables")


def corruptions(op: dict, code: int, stdout: str):
    """Wrong variants of a correct output."""
    yield "exit code", code ^ 1, stdout
    doc = json.loads(stdout)
    checks = gate.checks_of(doc) if "checks" in doc or "systems" in doc else []
    if checks:
        bad = copy.deepcopy(doc)
        first = gate.checks_of(bad)[0]
        first["pass"] = not first["pass"]
        yield f"{first['name']} verdict", code, json.dumps(bad)
    for c in checks:
        if not c["pass"]:
            bad = copy.deepcopy(doc)
            target = next(x for x in gate.checks_of(bad) if x["name"] == c["name"])
            arity, violated = gate.LITERAL[c["name"]]
            table = op["table"]
            target["witness"] = list(next(t for t in itertools.product(range(len(table)), repeat=arity) if not violated(table, *t)))
            yield f"{c['name']} witness", code, json.dumps(bad)
            break
    if doc["command"] == "random":
        doc["trials"][0]["universe"] += 1
        yield "campaign universe", code, json.dumps(doc)
    elif doc["command"] == "rc":
        doc["open_sets"] += 1
        yield "open count", code, json.dumps(doc)
    elif "frame" in doc:
        doc["frame"]["worlds"] += 1
        yield "world count", code, json.dumps(doc)


def gate_trips_on_corruption() -> None:
    from mereotop import cli

    tried = 0
    for workload in sorted(WORKLOADS):
        folder = OUT / "gate" / workload
        generate(workload, 0, folder)
        ops = run.load_ops(folder)[0]
        for op in ops:
            code, stdout, exc, _, _ = run.call(cli, op)
            if exc is not None:
                check(gate.known_defect(op, exc), f"{op['cls']} raised {exc!r}")
                continue
            check(gate.check_op(op, code, stdout, op.get("table")) is None, f"{op['cls']} real output rejected")
            for what, bad_code, bad_stdout in corruptions(op, code, stdout):
                check(gate.check_op(op, bad_code, bad_stdout, op.get("table")) is not None, f"{op['cls']}: corrupted {what} passed the gate")
                tried += 1
    print(f"ok {tried} corrupted outputs tripped the gate")


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def spans_nest(path: Path, metrics: dict, capped: bool) -> None:
    """Spans nest, and add up to the reported calls and self times: exactly
    when every call was recorded, as a lower bound when the cap cut them."""
    spans = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            spans[span["id"]] = span
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans.values():
        check(span["start_ns"] <= span["end_ns"], f"span {span} ends before it starts")
        parent = spans.get(span["parent"])
        if parent is not None:
            check(parent["start_ns"] <= span["start_ns"] and span["end_ns"] <= parent["end_ns"], f"span {span} leaves its parent {parent}")
            check(parent["op"] == span["op"], f"span {span} and its parent belong to different ops")
            child_ns[parent["id"]] += span["end_ns"] - span["start_ns"]
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans.values():
        self_ms[span["name"]] += (span["end_ns"] - span["start_ns"] - child_ns[span["id"]]) / 1e6
        calls[span["name"]] += 1
    for name, value in self_ms.items():
        counted = metrics[f"{name}.calls"]["value"]
        check(calls[name] <= counted if capped else calls[name] == counted, f"{name}: {calls[name]} spans, tracer counted {counted} calls")
        if not capped:
            reported = metrics[f"{name}.self_ms"]["value"]
            check(abs(value - reported) < 1e-3 * max(1.0, reported), f"{name}: spans give {value} ms self time, tracer {reported}")
    if capped:
        print(f"ok {len(spans)} spans in {path.name} (capped) nest and do not exceed the reported calls")
    else:
        print(f"ok {len(spans)} spans in {path.name} nest and add up to the reported self times")


def metrics_as_declared() -> None:
    for workload in sorted(WORKLOADS):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            done = run_benchmark(ROOT, workload, trace)
            check(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            check(result["correct"] is True and result["attempted"] >= 1, f"{workload} trace={trace}: {result}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), "a metric value is not a number")
            if trace:
                dropped = re.search(r"^spans: \d+ written to \S+, (\d+) over the cap", done.stdout, re.M)
                check(dropped is not None, f"{workload}: no spans line in the traced output")
                spans_nest(ROOT / ".perfbench_out" / f"spans-{workload}-3.jsonl", result["metrics"], int(dropped[1]) > 0)
            print(f"ok {workload} trace={trace}: {len(got)} metrics with their units")


def bare_directory_fails() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(bare, "campaign", 0)
    check(done.returncode != 0 and not done.stdout.strip(), f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print("ok without the program the benchmark exits non-zero and prints no result")


def main() -> int:
    require_program()
    literal_matches_oracles()
    gate_trips_on_corruption()
    bare_directory_fails()
    metrics_as_declared()
    shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
