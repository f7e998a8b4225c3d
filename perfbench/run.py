"""The mereotop benchmark: CLI commands run in-process, end to end.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

One op is one in-process call of ``mereotop.cli.main`` on an input
generated from ``--seed`` (see ``inputs.py``).  Ops run in a closed loop:
one caller, one process, each op starting when the previous one returns.
The loop runs whole rounds (a fixed mix of op classes) until ``--seconds``
of wall time have passed; the gate judges each output off the op clock.
In-process calls keep the ~0.2 s interpreter and numpy start out of every
op; that cost is part of ``setup_s`` instead, which is the median CPU time
of several fresh processes that import the program and write the inputs:
the first before the loop, the others spread over it, off the op clock.

Op times and set-up times are CPU times of the process doing the work (user
plus system).  The program runs on one thread (OpenBLAS is pinned to one
below) and an op reads only a small input file, so on an idle machine its
CPU time is its wall time.  On a shared virtual machine wall time also
counts the time the host hands the CPU to other guests (steal time), which
the guest kernel leaves out of CPU time.  Wall times are printed alongside.
The host's speed still drifts by tens of percent over tens of seconds, so
every timing metric is scaled to a reference speed measured through the run
by a fixed chunk of work that shares no code with the program
(``speed.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` a fixed number of rounds runs with every public function
of each module wrapped (``tracer.py``), then the same ops run again
untraced to give the tracing overhead, and once more with only the algebra
checkers' allocation peaks taken; the last line reports the per-layer
metrics and spans go to ``.perfbench_out/``.

Every op output passes the correctness gate (``gate.py``); a wrong output
makes the result ``"correct": false`` and the exit status 1.  Exceptions
escaping ``cli.main`` are counted by type and never stop the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One caller runs ops back to back, so the program gets one BLAS thread: on
# a shared 2-core machine OpenBLAS threads made campaign ops slower and
# their timing noisier (README).  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import gate  # noqa: E402
from inputs import MANIFEST, ROOT, WORKLOADS, require_program  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_REPEATS = 5
MAX_SPANS = 100_000
# Rounds per second of --seconds in the traced run, which runs them three
# times: traced, untraced and with allocation peaks taken.
TRACE_ROUNDS_PER_SECOND = {"campaign": 0.1, "axioms": 0.17, "represent": 0.25}
OUT = ROOT / ".perfbench_out"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, out: Path) -> tuple[float, str]:
    """One set-up in a fresh process: its CPU time (user plus system, from
    exec to exit) and the digest of the inputs it wrote to ``out``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("inputs.py")), "--workload", workload, "--seed", str(seed), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        sys.exit(f"error: input set-up failed:\n{done.stderr}")
    cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return cpu_s, done.stdout.strip()


def load_ops(input_dir: Path) -> list[list[dict]]:
    """Rounds of ops with input paths made absolute, and each check-axioms
    op's covering table attached for witness re-checks."""
    rounds = json.loads((input_dir / MANIFEST).read_text())["rounds"]
    tables: dict[str, object] = {}
    for ops in rounds:
        for op in ops:
            name = op.get("input")
            if name is None:
                continue
            path = str(input_dir / name)
            op["argv"] = [path if a == name else a for a in op["argv"]]
            if op["argv"][0] == "check-axioms":
                if name not in tables:
                    tables[name] = gate.covering_table(json.loads(Path(path).read_text()))
                op["table"] = tables[name]
    return rounds


# ---------------------------------------------------------------------------
# the closed loop


class Outcomes:
    """Per-op latency and verdicts of one pass over the rounds."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.errors: Counter[str] = Counter()
        self.wrong: list[str] = []
        self.started = time.perf_counter()
        self.wall_s = 0.0  # wall time spent inside cli.main
        self.cpu_s = 0.0  # CPU time of the process spent inside cli.main
        self.by_class: dict[str, list[float]] = {}
        self.digest = hashlib.sha256()

    def judge(self, op: dict, code: int | None, stdout: str, exc: Exception | None, ms: float, digest: bool) -> None:
        self.attempted += 1
        if digest:
            self.digest.update(stdout.encode() + b"\0")
        if exc is not None:
            self.errors[type(exc).__name__] += 1
            if not gate.known_defect(op, exc):
                self.wrong.append(f"{op['cls']}: raised {type(exc).__name__}: {exc}")
            return
        try:
            reason = gate.check_op(op, code, stdout, op.get("table"))
        except (KeyError, TypeError, IndexError, ValueError) as err:
            reason = f"malformed output ({type(err).__name__}: {err})"
        if reason:
            self.errors["wrong-output"] += 1
            self.wrong.append(f"{op['cls']} {op['argv']}: {reason}")
            return
        self.latencies_ms.append(ms)
        self.by_class.setdefault(op["cls"], []).append(ms)


def call(cli, op: dict) -> tuple[int | None, str, Exception | None, float, float]:
    """One op: exit code, stdout, escaped exception, wall seconds and CPU
    milliseconds."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = cli.main(op["argv"])
        except Exception as raised:  # counted by type, never stops the run
            exc = raised
        cpu_ms = (time.process_time() - cpu_start) * 1e3
        wall_s = time.perf_counter() - start
    return code, out.getvalue(), exc, wall_s, cpu_ms


def run_rounds(cli, rounds: list[list[dict]], *, seconds: float | None = None, count: int | None = None, digest_rounds: int = 0, before_op=None) -> Outcomes:
    """Run whole rounds from the first, cycling, until ``seconds`` of wall
    time have passed (ops, judging and ``before_op`` together) or ``count``
    rounds have run.  Each output is judged as it arrives, off the op clock,
    so neither the gate's time nor kept outputs grow with the number of
    ops."""
    outcomes = Outcomes()
    done = 0
    while True:
        for op in rounds[done % len(rounds)]:
            if before_op is not None:
                before_op(outcomes)
            code, stdout, exc, wall_s, cpu_ms = call(cli, op)
            outcomes.wall_s += wall_s
            outcomes.cpu_s += cpu_ms / 1e3
            outcomes.judge(op, code, stdout, exc, cpu_ms, done < digest_rounds)
        done += 1
        if (count is not None and done >= count) or (seconds is not None and time.perf_counter() - outcomes.started >= seconds):
            return outcomes


# ---------------------------------------------------------------------------
# machine record


def openblas_threads() -> str:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "openblas_threads": openblas_threads(),
    }


# ---------------------------------------------------------------------------
# main


def percentile_ms(latencies: list[float], which: int) -> float:
    """The which-th decile cut of the latencies (5 = median, 9 = p90);
    0 when there are too few to cut."""
    return statistics.quantiles(latencies, n=10)[which - 1] if len(latencies) >= 2 else 0.0


def main() -> int:
    args = parse_args()
    require_program()
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [set_up(args.workload, args.seed, work / "setup-0")]
        from mereotop import cli

        rounds = load_ops(work / "setup-0")
        gc.freeze()  # the harness's own objects stay out of the program's collections
        print(f"machine {json.dumps(machine_record(), sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of {len(rounds[0])} ops, inputs sha256 {setups[0][1]}")
        # warm-up: the last round, so the timed loop starts on unseen inputs
        warm = run_rounds(cli, rounds[-1:], count=1)
        if args.trace:
            metrics, outcomes = traced(cli, args, rounds)
        else:
            probe = SpeedProbe()

            def between_ops(done: Outcomes) -> None:
                probe.keep_up(done.cpu_s)
                # The machine's speed drifts over tens of seconds, so the
                # other set-ups run between ops, each time the loop passes
                # another 1/SETUP_REPEATS of --seconds, not in one burst.
                while len(setups) < SETUP_REPEATS and time.perf_counter() - done.started >= len(setups) / SETUP_REPEATS * args.seconds:
                    setups.append(set_up(args.workload, args.seed, work / f"setup-{len(setups)}"))

            outcomes = run_rounds(cli, rounds, seconds=args.seconds, digest_rounds=1, before_op=between_ops)
            between_ops(outcomes)
            ok = len(outcomes.latencies_ms)
            if ok < 2:
                outcomes.wrong.append(f"only {ok} ops succeeded; latency percentiles need two")
            scale = probe.scale()
            print(f"first-round stdout sha256 {outcomes.digest.hexdigest()}")
            print(f"{outcomes.attempted} ops took {outcomes.wall_s:.2f} s of wall time and {outcomes.cpu_s:.2f} s of CPU time, {ok} succeeded")
            print(f"reference chunk: {len(probe.chunk_ms)} timed, median {statistics.median(probe.chunk_ms):.3f} CPU ms; op and set-up times below are CPU times, and the metrics are those times x {scale:.6f}")
            for cls, values in sorted(outcomes.by_class.items()):
                print(f"  {cls}: {len(values)} ops, median {statistics.median(values):.2f} CPU ms")
            raw = {
                "setup_s": statistics.median(t for t, _ in setups),
                "op_cpu_s": outcomes.cpu_s / max(ok, 1),
                "op_p50_ms": percentile_ms(outcomes.latencies_ms, 5),
                "op_p90_ms": percentile_ms(outcomes.latencies_ms, 9),
            }
            print(f"unscaled: {json.dumps(raw)}")
            metrics = {
                "setup_s": (raw["setup_s"] * scale, "s"),
                "ops_per_s": (ok / (outcomes.cpu_s * scale), "1/s"),
                "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
                "op_p90_ms": (raw["op_p90_ms"] * scale, "ms"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "success_rate": (ok / outcomes.attempted, "ratio"),
            }
        print(f"set-up {len(setups)}x: {' '.join(f'{t:.3f}' for t, _ in setups)} s")
        wrong: list[str] = []
        if len({digest for _, digest in setups}) != 1:
            wrong.append(f"set-ups of one seed wrote different inputs: {sorted({d for _, d in setups})}")
        if outcomes.errors:
            print(f"errors by type: {dict(sorted(outcomes.errors.items()))}")
        wrong += warm.wrong + outcomes.wrong
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in wrong[:20]:
        print(f"WRONG {reason}")
    result = {
        "correct": not wrong,
        "attempted": outcomes.attempted,
        "failed": sum(outcomes.errors.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def traced(cli, args: argparse.Namespace, rounds: list[list[dict]]):
    """Traced rounds; the same rounds untraced, for the overhead; then the
    same rounds again with only the allocation peaks taken."""
    from tracer import AllocPeaks, Tracer

    count = max(1, int(args.seconds * TRACE_ROUNDS_PER_SECOND[args.workload]))
    tracer = Tracer(MAX_SPANS)
    tracer.install()

    # Each timed pass has its own reference chunks, so that the overhead
    # compares the two passes at one speed, however the machine drifted.
    traced_probe, plain_probe = SpeedProbe(), SpeedProbe()

    def next_op(done: Outcomes) -> None:
        traced_probe.keep_up(done.cpu_s)
        tracer.op_id += 1

    try:
        traced_run = run_rounds(cli, rounds, count=count, before_op=next_op)
    finally:
        tracer.uninstall()
    plain = run_rounds(cli, rounds, count=count, before_op=lambda done: plain_probe.keep_up(done.cpu_s))
    traced_cpu_s = traced_run.cpu_s * traced_probe.scale()
    plain_cpu_s = plain.cpu_s * plain_probe.scale()
    peaks = AllocPeaks()
    peaks.install()
    try:
        alloc_run = run_rounds(cli, rounds, count=count)
    finally:
        peaks.uninstall()
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    written = tracer.write_spans(spans)
    print(f"traced {count} rounds: {traced_run.attempted} ops took {traced_run.cpu_s:.2f} CPU s ({traced_cpu_s:.2f} s at reference speed); untraced replay {plain.cpu_s:.2f} CPU s ({plain_cpu_s:.2f} s); allocation pass {alloc_run.cpu_s:.2f} CPU s")
    print(f"spans: {written} written to {spans.relative_to(ROOT)}, {tracer.dropped} over the cap of {MAX_SPANS}")
    metrics = tracer.metrics()
    metrics.update(peaks.metrics())
    metrics["trace.ops_per_s"] = (len(traced_run.latencies_ms) / traced_cpu_s, "1/s")
    metrics["trace.overhead_pct"] = (100 * (traced_cpu_s / plain_cpu_s - 1), "%")
    traced_run.wrong += plain.wrong + alloc_run.wrong
    return metrics, traced_run


if __name__ == "__main__":
    sys.exit(main())
