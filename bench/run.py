"""fstarcount benchmark: seeded closed-loop query workloads.

    python3 bench/run.py --workload fat-simplex --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload

One client sends each query only after the previous one returned.  After
the timed loop every output is checked against its oracle (see
workloads.py); a mismatch or an exception counts as a failed query and
makes the exit code 1.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it replays the same queries under in-memory
spans (tracer.py) and reports per-layer metrics.  Times are scaled to a
reference machine by a fixed pure-Python kernel timed alongside (see
README.md).  The last line of stdout is one JSON object
{correct, attempted, failed, metrics}.

The library is imported from src/ next to this directory; the run
exits with code 2 and no result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_PROBES = 3        # fresh interpreters timed to their first query
CLI_REPEATS = 3         # in-process serialize repeats per CLI sample input
IMPORT_PROBES = 3       # -X importtime runs for cli.import_ms
MIN_QUERIES = 100       # so that p90 has at least 10 samples beyond it
CLI_CALLS = 20          # CLI calls per end-to-end run
REFERENCE_S = 0.001     # nominal reference kernel time: the in-process unit
REFERENCE_PROCESS_RUNS = 30     # kernel runs in one reference process
REFERENCE_PROCESS_S = 0.1       # its nominal wall time: the subprocess unit

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_wall_ms": "ms",
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "fstarcount" / "__init__.py").is_file():
        _fail(f"library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fstarcount
    if Path(fstarcount.__file__).resolve().parent != SRC / "fstarcount":
        _fail(f"imported fstarcount from {fstarcount.__file__}, "
              f"not from {SRC}")


def _child_env() -> dict:
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    env.pop("PYTHONHOME", None)
    return env


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git
    checkout (no git process, so no search above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args, workload, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "slots": [repr(slot) for slot in workload.slots],
        "loadavg_start": list(os.getloadavg()),
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile with the 'inclusive' interpolation of
    statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Pool:
    """The workload's seeded inputs, generated one slot cycle at a time
    from a single random stream, so any prefix is seed-determined."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.stream = workload.stream(seed)
        self.inputs: list[dict] = []

    def inputs_for(self, cycles: int) -> list[dict]:
        self.cycle(cycles - 1)
        return self.inputs

    def cycle(self, index: int) -> range:
        size = len(self.workload.slots)
        while len(self.inputs) < (index + 1) * size:
            self.inputs.append(next(self.stream))
        return range(index * size, (index + 1) * size)


def setup(workload, seed: int, cycles: int) -> Pool:
    """Input generation plus one warm-up query; what --probe times."""
    pool = Pool(workload, seed)
    for c in range(cycles):
        pool.cycle(c)
    workload.run(pool.inputs[0])
    return pool


def reference_kernel() -> None:
    """Fixed pure-Python work of the kind the library does (Fraction
    arithmetic, small int lists) that uses no fstarcount code."""
    acc = Fraction(0)
    rows = []
    for i in range(1, 300):
        acc += Fraction(i, 2 * i + 1)
        rows.append([j * i for j in range(6)])
    sum(map(sum, rows))


def reference_time() -> float:
    """Seconds of one reference kernel run, with the cyclic garbage
    collector off so that the library's live heap does not leak into the
    reading."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_scale(reference_s: float) -> float:
    """Factor that turns a time measured next to a reference reading
    into reference-machine time (the kernel taking REFERENCE_S)."""
    return REFERENCE_S / reference_s


def process_scale(env) -> float:
    """The same factor for a subprocess, read from a fresh interpreter
    that imports this module and runs the kernel REFERENCE_PROCESS_RUNS
    times: start-up, imports and pure-Python work, the make-up of a CLI
    call.  Nominal wall time REFERENCE_PROCESS_S."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from run import reference_kernel\n"
            f"for _ in range({REFERENCE_PROCESS_RUNS}): reference_kernel()")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                   cwd=ROOT, env=env, check=True, timeout=60)
    return REFERENCE_PROCESS_S / (time.perf_counter() - t0)


@dataclass
class Loop:
    latencies: list = field(default_factory=list)   # seconds, as measured
    scales: list = field(default_factory=list)      # speed_scale per query
    outputs: list = field(default_factory=list)     # None where it raised
    errors: dict = field(default_factory=dict)
    busy_s: float = 0.0                             # query time, as measured
    busy_ref_s: float = 0.0                         # the same, reference time


def timed_loop(workload, pool: Pool, seconds: float, between=None) -> Loop:
    """Whole slot cycles until the queries have taken `seconds` and at
    least MIN_QUERIES are done.  One reference kernel run follows each
    query, outside its timing; the cycle's median reference reading
    scales the cycle's times to reference-machine time.  `between(c)`
    runs after cycle c, also outside the timing, so that other
    measurements sample the same stretch of machine speed."""
    loop = Loop()
    clock = time.perf_counter
    c = 0
    while loop.busy_s < seconds or len(loop.outputs) < MIN_QUERIES:
        busy = 0.0
        references = []
        for i in pool.cycle(c):
            t0 = clock()
            try:
                out = workload.run(pool.inputs[i])
            except Exception as exc:  # a failed query, reported below
                out, loop.errors[i] = None, repr(exc)
            elapsed = clock() - t0
            busy += elapsed
            loop.latencies.append(elapsed)
            loop.outputs.append(out)
            references.append(reference_time())
        scale = speed_scale(statistics.median(references))
        loop.scales.extend([scale] * len(references))
        loop.busy_s += busy
        loop.busy_ref_s += busy * scale
        if between is not None:
            between(c)
        c += 1
    return loop


def check_outputs(workload, pool: Pool, outputs, errors, tracer=None) -> dict:
    """Oracle-check every output; returns {query index: reason}."""
    failures = dict(errors)
    for i, out in enumerate(outputs):
        if out is None:
            continue
        if tracer is not None:
            tracer.query = f"check:{i}"
        try:
            workload.check(pool.inputs[i], out)
        except Exception as exc:  # Mismatch or an oracle that raised
            failures[i] = repr(exc)
    return failures


class CliRunner:
    """Runs `python -m fstarcount.cli` on sample inputs one call at a
    time, keeping each call's wall time and counting calls whose stdout
    or exit code is wrong."""

    def __init__(self, sample, extra_flags=()):
        self.env = _child_env()
        self.calls = []
        for k, (argv, payload, expected) in enumerate(sample):
            path = OUT / "tmp" / f"cli-input-{k}.json"
            path.write_text(json.dumps(payload))
            argv = [str(path) if a == "{file}" else a for a in argv]
            self.calls.append(([sys.executable, "-m", "fstarcount.cli",
                                *argv, *extra_flags], expected))
        self.walls: list[float] = []      # seconds, as measured
        self.scales: list[float] = []     # process_scale before each call
        self.wrong = 0

    def run(self, k: int) -> None:
        cmd, expected = self.calls[k % len(self.calls)]
        self.scales.append(process_scale(self.env))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                              capture_output=True, timeout=120)
        self.walls.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != expected:
            self.wrong += 1
            print(f"cli mismatch: {cmd[3:]}: {proc.stdout[:200]!r} "
                  f"{proc.stderr[-300:]!r}", file=sys.stderr)


def setup_probe_times(args) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter to its first timed query
    (start-up, imports, input generation and the warm-up query), with
    the speed scale read just before each spawn."""
    times, scales = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    env = _child_env()
    for _ in range(SETUP_PROBES):
        scales.append(process_scale(env))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            _fail(f"setup probe failed: {line!r}")
    return times, scales


def pregenerated_cycles(workload, seconds: float) -> int:
    """Cycles generated during set-up: what the seed commit runs in
    `seconds`, plus one.  A faster program extends the pool between
    cycles, outside the timed queries."""
    return math.ceil(seconds / workload.cycle_seconds) + 1


def _scaled(values, scales) -> list[float]:
    return [v * s for v, s in zip(values, scales)]


def end_to_end(args, workload) -> tuple[dict, int, int, dict]:
    pool = setup(workload, args.seed,
                 pregenerated_cycles(workload, args.seconds))
    cli = CliRunner(workload.cli_sample(pool.inputs_for(2)))
    # About CLI_CALLS calls spread over the loop, one after every few cycles.
    every = max(1, round(args.seconds / workload.cycle_seconds / CLI_CALLS))
    loop = timed_loop(workload, pool, args.seconds,
                      lambda c: c % every or cli.run(c // every))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(cli.walls) < CLI_CALLS:
        cli.run(len(cli.walls))
    t0 = time.perf_counter()
    failures = check_outputs(workload, pool, loop.outputs, loop.errors)
    check_s = time.perf_counter() - t0
    probes, probe_scales = setup_probe_times(args)
    ms = [x * 1000 for x in _scaled(loop.latencies, loop.scales)]
    raw_ms = [x * 1000 for x in loop.latencies]
    n = len(loop.outputs)
    metrics = {
        "setup_s": statistics.median(_scaled(probes, probe_scales)),
        "queries_per_s": n / loop.busy_ref_s,
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
        "peak_rss_mb": peak_rss_mb,
        "cli_wall_ms": statistics.median(_scaled(cli.walls, cli.scales))
        * 1000,
    }
    attempted = n + len(cli.walls)
    failed = len(failures) + cli.wrong
    detail = {
        "queries": n, "query_s": loop.busy_s, "check_s": check_s,
        "samples_beyond_p90": sum(1 for x in ms
                                  if x > metrics["latency_p90_ms"]),
        "failed_share": failed / attempted,
        "failures": {str(k): v for k, v in list(failures.items())[:20]},
        "as_measured": {
            "setup_s": statistics.median(probes),
            "queries_per_s": n / loop.busy_s,
            "latency_p50_ms": percentile(raw_ms, 50),
            "latency_p90_ms": percentile(raw_ms, 90),
            "cli_wall_ms": statistics.median(cli.walls) * 1000,
        },
        "speed_scale_median": statistics.median(loop.scales),
        "slot_median_ms": [statistics.median(ms[j::len(workload.slots)])
                           for j in range(len(workload.slots))],
        "setup_probes_s": probes, "cli_calls": len(cli.walls),
        "pool_inputs": len(pool.inputs),
    }
    return metrics, attempted, failed, detail


def traced(args, workload) -> tuple[dict, int, int, dict]:
    from tracer import (COUNT, END, NAME, QUERY, START, Instrumented,
                        Tracer, layer_times)

    pool = setup(workload, args.seed,
                 pregenerated_cycles(workload, args.seconds / 2))
    tracer = Tracer()
    instrumented = Instrumented(tracer)
    traced_outputs: list = []
    traced_s = 0.0
    clock = time.perf_counter

    def replay(c: int) -> None:
        # Each cycle runs untraced (timed_loop) and then traced, so both
        # passes see the same stretch of machine speed; the difference is
        # the tracing overhead.
        nonlocal traced_s
        with instrumented:
            start = clock()
            for i in pool.cycle(c):
                tracer.query = i
                root = tracer.open("bench.query")
                try:
                    traced_outputs.append(workload.run(pool.inputs[i]))
                except Exception as exc:  # a failed query, reported below
                    traced_outputs.append(None)
                    errors.setdefault(i, repr(exc))
                finally:
                    tracer.close(root)
            traced_s += clock() - start

    errors: dict = {}
    loop = timed_loop(workload, pool, args.seconds / 2, replay)
    errors.update(loop.errors)
    outputs, untraced_s = loop.outputs, loop.busy_s
    n = len(outputs)
    with instrumented:
        failures = check_outputs(workload, pool, traced_outputs, errors,
                                 tracer)
    for i in range(n):
        if outputs[i] != traced_outputs[i]:
            failures.setdefault(i, "traced output differs from untraced")

    layers = layer_times(tracer, set(range(n)))
    checks = layer_times(tracer, {f"check:{i}" for i in range(n)})

    # Times in reference-machine seconds, scaled by the untraced pass that
    # alternated with the traced one.
    scale = statistics.median(loop.scales)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0) / n * scale

    def count(name):
        return layers.get(name, {}).get("count", 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    extra = {k: v / n for k, v in tracer.extra.items()}
    query_wall = layers["bench.query"]["total_s"]
    # The f* oracle: interpolation of the open simplex (count 1) in the
    # check phase, on the same simplices fstar_simplex saw in the queries.
    oracle_s = sum(span[END] - span[START] for span in tracer.spans
                   if span[NAME] == "simplices.interpolate" and span[COUNT]
                   and isinstance(span[QUERY], str))
    fstar_total = layers.get("simplices.fstar", {}).get("total_s", 0.0)

    metrics = {
        "exact.template_s": self_s("exact.template"),
        "exact.templates": count("exact.template"),
        "cones.reduce_s": self_s("cones.reduce"),
        "cones.reduced_cones": count("cones.reduce"),
        "coloring.faces_s": self_s("coloring.faces"),
        "coloring.realize_s": self_s("coloring.realize"),
        "coloring.cells": count("coloring.realize"),
        "cones.atomic_s": self_s("cones.atomic"),
        "cones.atomic_points": count("cones.atomic"),
        "cones.atomic_candidates": extra.get("cones.atomic_candidates", 0.0),
        "cones.atomic_yield": ratio(count("cones.atomic"),
                                    extra.get("cones.atomic_candidates", 0)),
        "rational.residue_s": self_s("rational.residue"),
        "rational.profile_s": self_s("rational.profile"),
        "rational.cone_det": extra.get("rational.cone_det", 0.0),
        "cones.parallelepiped_s": self_s("cones.parallelepiped"),
        "cones.parallelepiped_points": count("cones.parallelepiped"),
        "cones.box_points": extra.get("cones.box_points", 0.0),
        "cones.parallelepiped_yield": ratio(
            count("cones.parallelepiped"), extra.get("cones.box_points", 0)),
        "simplices.count_s": self_s("simplices.count"),
        "simplices.points_counted": count("simplices.count"),
        "cones.partition_s": self_s("cones.partition"),
        "cones.partition_points": count("cones.partition"),
        "simplices.fstar_s": self_s("simplices.fstar"),
        "simplices.hstar_s": self_s("simplices.hstar"),
        "simplices.complex_fstar_s": self_s("simplices.complex_fstar"),
        "simplices.oracle_s": oracle_s / n * scale,
        "simplices.fast_over_oracle": ratio(fstar_total, oracle_s),
        "bases.convert_s": self_s("bases.convert"),
        "bases.conversions": count("bases.convert"),
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        "trace.accounted_share": 1 - layers["bench.query"]["self_s"]
        / query_wall,
    }
    cli_metrics, cli_wrong = cli_layers(workload, pool, scale)
    metrics.update(cli_metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.json.gz")
    failed = len(failures) + cli_wrong
    detail = {
        "queries": n, "untraced_s": untraced_s, "traced_s": traced_s,
        "query_wall_s": query_wall, "spans": len(tracer.spans),
        "failed_share": failed / n,
        "failures": {str(k): v for k, v in list(failures.items())[:20]},
        "layers": layers, "check_layers": checks,
    }
    return metrics, n, failed, detail


PER_LAYER_UNITS = {
    "exact.template_s": "s/query", "exact.templates": "count/query",
    "cones.reduce_s": "s/query", "cones.reduced_cones": "count/query",
    "coloring.faces_s": "s/query", "coloring.realize_s": "s/query",
    "coloring.cells": "count/query",
    "cones.atomic_s": "s/query", "cones.atomic_points": "count/query",
    "cones.atomic_candidates": "count/query", "cones.atomic_yield": "ratio",
    "rational.residue_s": "s/query", "rational.profile_s": "s/query",
    "rational.cone_det": "count/query",
    "cones.parallelepiped_s": "s/query",
    "cones.parallelepiped_points": "count/query",
    "cones.box_points": "count/query", "cones.parallelepiped_yield": "ratio",
    "simplices.count_s": "s/query", "simplices.points_counted": "count/query",
    "cones.partition_s": "s/query", "cones.partition_points": "count/query",
    "simplices.fstar_s": "s/query", "simplices.hstar_s": "s/query",
    "simplices.complex_fstar_s": "s/query",
    "simplices.oracle_s": "s/query", "simplices.fast_over_oracle": "ratio",
    "bases.convert_s": "s/query", "bases.conversions": "count/query",
    "serialize.parse_s": "s/call", "serialize.emit_s": "s/call",
    "serialize.bytes_out": "bytes/call", "cli.import_ms": "ms",
    "trace.overhead_share": "ratio", "trace.accounted_share": "ratio",
    "acceptance.selftest_s": "s", "cli.parallel_speedup": "ratio",
}


def _importtime_ms(env) -> float:
    """Cumulative import time of the fstarcount modules imported at top
    level by `import fstarcount.cli`, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fstarcount.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    total_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        if name.startswith(" fstarcount") and not name.startswith("  "):
            total_us += int(parts[1])
    return total_us / 1000


def cli_layers(workload, pool, scale: float) -> tuple[dict, int]:
    """serialize, cli and acceptance numbers of the traced run, plus the
    number of wrong outputs among them.  In-process times use the loop's
    speed scale; subprocess times a reading taken just before."""
    from fstarcount import serialize
    from workloads import WORKLOADS

    parsers = {
        "fstar": serialize.simplex_from_json,
        "rational-fstar": serialize.simplex_from_json,
        "coloring-complex": serialize.hypergraph_from_json,
        "complex-fstar": serialize.complex_from_json,
        "count": serialize.simplex_from_json,
    }

    def emit(command, expected_obj):
        """The CLI's output payload rebuilt through serialize from a
        parsed copy of the expected answer."""
        if command in ("fstar", "complex-fstar"):
            payload = serialize.fstar_to_json(
                serialize.fstar_from_json(expected_obj))
            if "method" in expected_obj:
                payload["method"] = expected_obj["method"]
        elif command == "rational-fstar":
            payload = serialize.quasipolynomial_to_json(
                serialize.quasipolynomial_from_json(expected_obj))
        elif command == "coloring-complex":
            payload = dict(expected_obj, **{
                key: serialize.vector_to_json(
                    [serialize.rational_from_obj(x) for x in expected_obj[key]])
                for key in ("f", "fstar", "hstar")})
        else:
            payload = {"count": str(serialize.int_from_obj(
                expected_obj["count"]))}
        return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n").encode()

    sample = workload.cli_sample(pool.inputs_for(2))
    parse_s = emit_s = 0.0
    bytes_out = wrong = 0
    clock = time.perf_counter
    for argv, payload, expected in sample:
        text = json.dumps(payload)
        expected_obj = json.loads(expected)
        for _ in range(CLI_REPEATS):
            t0 = clock()
            parsers[argv[0]](json.loads(text))
            t1 = clock()
            out = emit(argv[0], expected_obj)
            parse_s += t1 - t0
            emit_s += clock() - t1
        bytes_out += len(out)
        wrong += out != expected
    calls = len(sample) * CLI_REPEATS

    env = _child_env()
    import_ms = statistics.median(process_scale(env) * _importtime_ms(env)
                                  for _ in range(IMPORT_PROBES))
    selftest_scale = process_scale(env)
    t0 = clock()
    proc = subprocess.run([sys.executable, "-m", "fstarcount.cli", "selftest"],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=150)
    selftest_s = (clock() - t0) * selftest_scale
    wrong += proc.returncode != 0

    coloring = WORKLOADS["coloring-complex"]
    complexes = coloring.complex_sample(
        Pool(coloring, pool.seed).inputs_for(1))
    serial = CliRunner(complexes)
    parallel = CliRunner(complexes, ("--parallel",))
    for k in range(2 * len(complexes)):
        serial.run(k)
        parallel.run(k)
    wrong += serial.wrong + parallel.wrong
    return {
        "serialize.parse_s": parse_s / calls * scale,
        "serialize.emit_s": emit_s / calls * scale,
        "serialize.bytes_out": bytes_out / len(sample),
        "cli.import_ms": import_ms,
        "acceptance.selftest_s": selftest_s,
        "cli.parallel_speedup": sum(serial.walls) / sum(parallel.walls),
    }, wrong


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    combined, attempted, failed, code = {}, 0, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {proc.returncode})")
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        code = code or proc.returncode
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {name}: attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:14.6g} {entry['unit']}")
            combined[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": failed == 0 and code == 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": combined}))
    return code or (1 if failed else 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="fat-simplex, coloring-complex, dilate-count "
                             "or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # set-up probe child
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.probe:
        setup(workload, args.seed, pregenerated_cycles(workload, args.seconds))
        print("ready", flush=True)
        return 0

    context = run_context(args, workload, bool(args.trace))
    if args.trace:
        metrics, attempted, failed, detail = traced(args, workload)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, failed, detail = end_to_end(args, workload)
        units = END_TO_END_UNITS
    context["loadavg_end"] = list(os.getloadavg())
    record = {"context": context, "attempted": attempted, "failed": failed,
              "metrics": metrics, "detail": detail}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"queries {detail['queries']}  failed {failed}/{attempted}  "
          f"failed_share {detail['failed_share']:.4g}")
    print("context " + json.dumps(context))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
