"""Benchmark for degseqopt: seeded closed-loop query workloads, in-process
and through the CLI, every answer checked.

    python3 bench/run.py --workload forest_scale --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One process runs one workload with one thread.  It answers the workload's
batch in whole passes until ``--seconds`` have gone by; between passes it
times fresh interpreters (set-up) and runs part of the CLI subset, one
subprocess at a time.  The stress probes run last.  ``--trace 1`` runs the
untraced passes for half the time, then one traced pass, and reports the
per-layer metrics instead (see README.md).  End-to-end times are scaled
to a reference speed measured in the same run (``end_to_end_metrics``).
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import types
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import execute
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

QUERY_CAP_S = 30.0   # per-query wall-clock cap; a failed query counts as this slow
RUN_CAP_S = 150.0    # queries not started by then fail, so a run ends in time
START_CAP_S = 10.0   # for a bare interpreter start with imports
SETUP_RUNS = 7       # at least; one more is taken after every pass
SETUP_FIRST = 3
CLI_ROUNDS = 10      # times the CLI subset runs, spread between the passes
PROBE_RESERVE_S = 1.5  # kept free for the stress probes at the end
REFERENCE_MS = 1.0     # reference loop time at the speed end-to-end times are scaled to
IMPORTTIME_RUNS = 3
CLI_EXIT_CODES = {0, 1, 2, 3}


# zero whenever nothing fails, so it cannot carry a relative bound; the JSON
# line carries the same information as "failed" out of "attempted"
REPORT_ONLY = {"fail_ratio", "reference_scale"}


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so library code cannot catch it."""


@dataclass
class Outcome:
    query: workloads.Query
    seconds: float
    problems: list = field(default_factory=list)
    known: bool = False      # a recorded known defect, still failing
    warned: int = 0          # RuntimeWarnings raised by the call

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _known(q, data) -> bool:
    return q.known_defect and data.get("raises") == "RecursionError"


def run_query(mods, q, reference, deadline) -> Outcome:
    cap = min(QUERY_CAP_S, deadline - time.perf_counter())
    if cap <= 0:
        return Outcome(q, QUERY_CAP_S, ["not started: run time cap reached"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        signal.setitimer(signal.ITIMER_REAL, cap)
        start = time.perf_counter()
        try:
            raw = execute.call(mods, q)
            data = None
        except QueryTimeout:
            return Outcome(q, QUERY_CAP_S, [f"over the {cap:.0f} s cap"])
        except Exception as exc:  # the answer is judged below
            data = {"raises": type(exc).__name__}
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    try:
        if data is None:
            data = execute.extract(q.kind, raw)
        problems = execute.verify(q, data, reference)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return Outcome(q, seconds, [f"unreadable result: {exc!r}"], warned=warned)
    return Outcome(q, seconds, problems, _known(q, data) and bool(problems), warned)


_reference_ms: list[float] = []


def reference_loop(n=3000) -> int:
    """Fixed pure-Python work that never touches degseqopt: arithmetic and
    dict, set and list traffic, like the interpreter work of the library."""
    acc = 0
    table = {}
    seen = set()
    items = []
    for i in range(n):
        v = (i * 7919) % 1009
        table[v] = table.get(v, 0) + 1
        seen.add(v & 255)
        items.append(v)
        acc += len(seen)
    items.sort()
    return acc + items[n // 2]


def sample_reference() -> None:
    """Times the reference loop once; called between every two measurements."""
    start = time.perf_counter()
    reference_loop()
    _reference_ms.append(1000 * (time.perf_counter() - start))


def run_pass(mods, queries, reference, deadline, trace=None) -> list[Outcome]:
    cache = getattr(mods.extremal, "_graphic_cached", None)
    if cache is not None:  # every pass starts from the same state
        cache.cache_clear()
    gc.collect()
    out = []
    for i, q in enumerate(queries):
        if trace is not None:
            trace.query = i
        out.append(run_query(mods, q, reference, deadline))
        sample_reference()
    return out


def pass_qps(outcomes) -> float:
    busy = sum(o.seconds for o in outcomes)
    return sum(not o.failed for o in outcomes) / busy


def per_query(passes):
    """(failed, median seconds) of each query over its repeats.

    Other tenants of the machine slow single calls by up to half again, in
    stretches of seconds; the fastest repeat of a query is a lucky draw and
    moved much more between runs than the median of its repeats did.
    """
    return [(any(o.failed for o in runs), statistics.median(o.seconds for o in runs))
            for runs in zip(*passes)]


def percentile(values, p) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_subprocess(cmd, cap):
    """(seconds, completed process or None if killed at the cap).

    ``communicate`` without a timeout blocks on the pipes and then on
    ``waitpid``; with a timeout it polls, which rounds the time up by as
    much as 50 ms.  A timer thread enforces the cap instead.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    killed = []
    timer = threading.Timer(cap, lambda: (killed.append(True), proc.kill()))
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    if killed:
        return seconds, None
    return seconds, subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def measure_setup(times: int) -> list[float]:
    """Fresh interpreters importing the package and its CLI (bytecode cache warm)."""
    cmd = [sys.executable, "-c", "import degseqopt, degseqopt.cli"]
    out = []
    for _ in range(times):
        seconds, done = timed_subprocess(cmd, START_CAP_S)
        if done is None or done.returncode:
            raise RuntimeError(f"importing degseqopt failed: {done and done.stderr}")
        out.append(seconds)
        sample_reference()
    return out


def measure_imports() -> dict[str, float]:
    cmd = [sys.executable, "-X", "importtime", "-c", "import degseqopt.cli"]
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        _, done = timed_subprocess(cmd, START_CAP_S)
        runs.append(tracing.parse_importtime(done.stderr if done else ""))
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in tracing.IMPORTED}


def _in_process_cli(mods, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods.cli.main(argv)
    return code, buf.getvalue()


def run_cli(mods, q, reference, deadline, graph_path) -> Outcome:
    """One CLI subprocess, checked against in-process ``cli.main`` and the reference."""
    argv = q.argv(graph_path)
    cap = min(QUERY_CAP_S, deadline - time.perf_counter())
    if cap <= 0:
        return Outcome(q, QUERY_CAP_S, ["not started: run time cap reached"])
    seconds, done = timed_subprocess([sys.executable, "-m", "degseqopt", *argv], cap)
    if done is None:
        return Outcome(q, QUERY_CAP_S, [f"CLI over the {cap:.0f} s cap"])
    problems = []
    if done.returncode not in CLI_EXIT_CODES:
        problems.append(f"exit code {done.returncode}")
    if "Traceback (most recent call last)" in done.stderr:
        problems.append("traceback on stderr")
    try:
        code, expected = _in_process_cli(mods, argv)
        if (code, expected) != (done.returncode, done.stdout):
            problems.append("stdout or exit code differs from in-process cli.main")
    except Exception as exc:  # in-process run crashed: judged like any failure
        problems.append(f"in-process cli.main raised {type(exc).__name__}")
    if not problems:
        try:
            data = execute.extract_cli(q.kind, json.loads(done.stdout))
            problems += execute.verify(q, data, reference)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable CLI report: {exc!r}")
    known = q.known_defect and problems and (
        "RecursionError" in done.stderr or any("RecursionError" in p for p in problems))
    return Outcome(q, seconds, problems, bool(known))


def load_library():
    if not (SRC / "degseqopt" / "__init__.py").is_file():
        sys.exit(f"error: no degseqopt package under {SRC}")
    sys.path.insert(0, str(SRC))
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"degseqopt.{m}") for m in tracing.MODULES})


def load_reference(workload) -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as f:
        return json.load(f)[workload]


@dataclass
class Run:
    passes: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    cli: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def everything(self):
        return [o for p in self.passes + self.cli for o in p] + self.probes


def setup_s(run) -> float:
    return statistics.median(run.setup)


def graph_files(queries) -> dict[str, str]:
    WORK.mkdir(exist_ok=True)
    paths = {}
    for q in queries:
        if q.graph and q.cli:
            path = WORK / f"graph-{q.key()}.json"
            path.write_text(q.graph_json(), encoding="utf-8")
            paths[q.key()] = str(path)
    return paths


def run_workload(args) -> int:
    mods = load_library()
    reference = load_reference(args.workload)
    queries = workloads.batch(args.workload, args.seed)
    probes = workloads.probes(args.workload)
    cli_queries = [q for q in queries + probes if q.cli]
    paths = graph_files(cli_queries)
    signal.signal(signal.SIGALRM, _on_alarm)
    began = time.perf_counter()
    deadline = began + RUN_CAP_S
    def run_cli_round():
        outcomes = []
        for q in cli_queries:
            outcomes.append(run_cli(mods, q, reference, deadline, paths.get(q.key())))
            sample_reference()
        return outcomes

    run = Run()
    measure_setup(1)  # warms the bytecode cache
    run.setup += measure_setup(SETUP_FIRST)

    # Whole passes until --seconds are used (half of them when tracing).
    # Set-up samples and CLI rounds are taken between passes, so that a
    # slow stretch of the machine cannot move all samples of one metric.
    # A pass starts only if it, the CLI rounds still owed and the probes
    # fit in the time left.
    budget = (args.seconds / 2 if args.trace else args.seconds) - PROBE_RESERVE_S * bool(probes)
    rounds_left = CLI_ROUNDS
    last_pass = cli_round = 0.0
    while not run.passes or (time.perf_counter() - began + last_pass + setup_s(run)
                             + rounds_left * cli_round < budget):
        began_pass = time.perf_counter()
        run.passes.append(run_pass(mods, queries, reference, deadline))
        last_pass = time.perf_counter() - began_pass
        run.setup += measure_setup(1)
        passes_left = (budget - (time.perf_counter() - began)) / (last_pass + setup_s(run)
                                                                   + cli_round)
        for _ in range(min(rounds_left, math.ceil(rounds_left / max(1.0, passes_left)))):
            began_round = time.perf_counter()
            run.cli.append(run_cli_round())
            cli_round = time.perf_counter() - began_round
            rounds_left -= 1
        if time.perf_counter() > deadline:
            break
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(rounds_left):
        run.cli.append(run_cli_round())
    run.setup += measure_setup(max(0, SETUP_RUNS - len(run.setup)))

    if args.trace:
        trace = tracing.Tracer()
        trace.install(mods)
        traced = run_pass(mods, queries, reference, deadline, trace)  # clears the cache
        cache = getattr(mods.extremal, "_graphic_cached", None)
        cache_info = cache.cache_info() if cache is not None else None
        for i, q in enumerate(cli_queries):  # cli.main spans
            trace.query = len(queries) + i
            with contextlib.suppress(Exception):
                _in_process_cli(mods, q.argv(paths.get(q.key())))
    for q in probes:
        run.probes.append(run_query(mods, q, reference, deadline))

    everything = run.everything() + (traced if args.trace else [])
    unexpected = [o for o in everything if o.failed and not o.known]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {len(queries)} queries per pass, {len(run.passes)} passes"
          f"{' + 1 traced' if args.trace else ''}, {sum(map(len, run.cli))} CLI calls, "
          f"{len(run.probes)} stress probes, {time.perf_counter() - began:.1f} s")
    known = collections.Counter(f"{o.query.kind} n={len(o.query.seq)}: {o.problems[0]}"
                                for o in everything if o.known)
    for line, times in known.items():
        print(f"  known defect ({times}x): {line}")
    for o in unexpected[:20]:
        print(f"  FAILED: {o.query.kind} {o.query.text()[:60]}: {'; '.join(o.problems)[:200]}")
    if args.trace:
        metrics = layer_metrics(trace, traced, run.passes, cache_info)
        trace_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        trace.write(trace_path)
        print(f"  {len(trace.start)} spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(run)
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']:<6} {m.get('samples', '')}")
    result = {
        "correct": not unexpected,
        "attempted": len(everything),
        "failed": len(unexpected),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items() if k not in REPORT_ONLY},
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(run) -> dict:
    """The end-to-end metrics, with every time scaled to the reference speed.

    The shared core's speed drifts by up to 1.6 times over minutes, and a
    whole run can sit in a fast or a slow stretch.  The reference loop is
    timed between every two measurements of the run, so its median sees
    the same stretches; each time is multiplied by ``REFERENCE_MS`` over
    that median.  The report also shows every value as measured.
    """
    scale = REFERENCE_MS / statistics.median(_reference_ms)
    rows = per_query(run.passes)
    latencies = [QUERY_CAP_S if failed else seconds for failed, seconds in rows]
    latencies += [QUERY_CAP_S if o.failed else o.seconds for o in run.probes]
    cli = [QUERY_CAP_S if failed else seconds for failed, seconds in per_query(run.cli)]
    attempted = run.everything()
    failed = [o for o in attempted if o.failed]
    slow = sum(lat == QUERY_CAP_S for lat in latencies)
    lat_note = (f"{len(latencies)} queries, each the median of {len(run.passes)} passes; "
                f"{slow} failed, counted as {QUERY_CAP_S:.0f} s")
    measured = {
        "queries_per_s": (sum(not failed for failed, _ in rows) / sum(s for _, s in rows),
                          f"{len(rows)} queries x {len(run.passes)} passes"),
        "latency_p50_ms": (1000 * percentile(latencies, 0.5), lat_note),
        "latency_p90_ms": (1000 * percentile(latencies, 0.9), lat_note),
        "cli_p50_ms": (1000 * statistics.median(cli),
                       f"{len(cli)} queries, each the median of {CLI_ROUNDS}"),
        "setup_s": (statistics.median(run.setup), f"median of {len(run.setup)} fresh interpreters"),
    }
    units = {"queries_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "cli_p50_ms": "ms", "setup_s": "s"}
    metrics = {}
    for name, (value, note) in measured.items():
        factor = 1 / scale if name == "queries_per_s" else scale
        metrics[name] = {"value": value * factor, "unit": units[name],
                         "samples": f"(measured {value:.6g}; {note})"}
    metrics["fail_ratio"] = {"value": len(failed) / len(attempted), "unit": "ratio", "samples":
                             f"({len(failed)} of {len(attempted)} attempted, "
                             f"{sum(o.known for o in failed)} known defects)"}
    metrics["peak_rss_mb"] = {"value": run.peak_rss_mb, "unit": "MB",
                              "samples": "(runner process)"}
    metrics["reference_scale"] = {"value": scale, "unit": "ratio", "samples":
                                  f"({REFERENCE_MS} ms / median of {len(_reference_ms)} "
                                  f"reference loops)"}
    return metrics


def layer_metrics(trace, traced, untraced_passes, cache_info) -> dict:
    stats = trace.span_stats()
    values = dict(trace.counters)
    values["extremal.gamma_min_bounded.warnings"] = sum(o.warned for o in traced)
    if cache_info is not None and cache_info.hits + cache_info.misses:
        values["extremal.graphic_cache.hit_ratio"] = (
            cache_info.hits / (cache_info.hits + cache_info.misses))
    # against single untraced passes, as the traced pass is a single pass
    untraced = statistics.median(pass_qps(p) for p in untraced_passes)
    values["trace.overhead_qps"] = pass_qps(traced) - untraced
    imports = measure_imports()
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        if name.startswith("import.degseqopt."):
            value = imports[name.split(".")[2]]
        elif name in values:
            value = values[name]
        else:
            value = stats.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    metrics["bipartite.build_bounded_bipartite.unit_arcs"]["samples"] = "(computed from specs)"
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:  # one process per workload
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
