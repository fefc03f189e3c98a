"""Benchmark of oplax: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload operad-laws --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Prints one row per metric (name, value, unit, sample count) and, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed; with ``--trace 1`` they are the per-layer ones of a
separate traced run, with the tracing overhead.  Exits non-zero, printing no
result, when the oplax sources are missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import ROOT, WORKLOADS, child_env, run_cli

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_PROBES = 21
#: traced/untraced pass pairs of a traced run, at least
TRACE_PAIRS = 3
IMPORTTIME_PROBES = 3
MODULES = ("scalars", "weyl", "operad", "oscillator", "bianchi", "jacobi", "report", "cli")

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "work_per_s": "1/s",
}
#: the names the workloads' own metrics go by: (name, scale, unit)
ALIASES = {
    "paper-verify": {"op_p50_ms": ("verify_all_s", 1e-3, "s"),
                     "op_tail_ms": ("verify_all_tail_s", 1e-3, "s")},
    "operad-laws": {"work_per_s": ("operad_triples_per_s", 1, "1/s"),
                    "op_tail_ms": ("operad_triple_tail_ms", 1, "ms")},
    "quantum-ordering": {"work_per_s": ("qwords_per_s", 1, "1/s"),
                         "op_tail_ms": ("qword_tail_ms", 1, "ms")},
    "canonical-io": {"work_per_s": ("io_chars_per_s", 1, "1/s")},
}


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- set-up ---------------------------------------------------------------------

class SetupProbes:
    """Wall seconds from spawning a fresh interpreter to its deck being built.

    The probes are spread over the timed loop, one between two operations
    whenever one is due, so they meet the same machine as the operations.
    """

    def __init__(self, name: str, seed: int, seconds: float, speed: "Speed"):
        self.command = [sys.executable, str(HERE / "child.py"), "setup", name, str(seed)]
        self.every = seconds / SETUP_PROBES
        self.speed = speed
        self.next_at = perf_counter()
        self.samples = []        # (start, wall seconds)

    def probe(self) -> None:
        start = perf_counter()
        proc = subprocess.Popen(self.command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
        with proc:
            line = proc.stdout.readline()
            self.samples.append((start, perf_counter() - start))
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe {self.command[2:]} failed")

    def probe_if_due(self) -> None:
        if len(self.samples) < SETUP_PROBES and perf_counter() >= self.next_at:
            self.next_at += self.every
            self.probe()

    def finish(self) -> tuple:
        """Probes until there are SETUP_PROBES; returns scaled and wall seconds."""
        while len(self.samples) < SETUP_PROBES:
            self.speed.sample_if_due()
            self.probe()
        return ([wall * self.speed.scale(start) for start, wall in self.samples],
                [wall for _, wall in self.samples])


def import_times() -> dict:
    """Median self time of importing each oplax module, from -X importtime."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import oplax.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*oplax\.(\w+)\s*$", line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {f"{m}.import_s": statistics.median(v) if v else 0.0 for m, v in samples.items()}


# -- machine speed ----------------------------------------------------------------

#: scaled times read as wall times on a machine where a reference takes this long
REFERENCE_S = 0.010
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 1.5


def compute_reference() -> None:
    """Fixed pure-Python work with the engine's instruction mix (tuple keys,
    dict updates, Fraction sums) and no oplax code in it."""
    acc = {}
    for i in range(3000):
        key = (i % 37, i % 11, i * 7 % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 5 + 1, i % 3 + 1)


def spawn_reference() -> None:
    """A bare interpreter that starts and runs nothing: the process start-up
    that set-up probes and CLI runs pay, with no oplax code in it."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], cwd=ROOT, check=True)


class Speed:
    """Machine speed through a run, from reference calls between operations.

    The speed of a shared machine drifts by tens of percent over tens of
    seconds.  Scaling each operation's wall time by the reference time
    measured around it takes that drift out of the timings; the engine's
    code never runs inside the reference, so a change to it is not scaled away.
    Work in this process is scaled by compute_reference(), work in a fresh
    child process by spawn_reference(): each tracked its own kind of work
    more closely than the other did (perfbench/README.md).
    """

    def __init__(self, reference):
        self.reference = reference
        self.at = []
        self.took = []

    def sample_if_due(self) -> None:
        now = perf_counter()
        if not self.at or now - self.at[-1] >= REFERENCE_EVERY_S:
            self.reference()
            self.at.append(now)
            self.took.append(perf_counter() - now)

    def scale(self, t: float, until: float = None) -> float:
        """Factor turning a wall time measured at t, or over t..until, into a
        scaled time."""
        lo = bisect.bisect_left(self.at, t - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.at, (t if until is None else until) + REFERENCE_WINDOW_S)
        return REFERENCE_S / statistics.median(self.took[lo:hi] or self.took)


# -- the closed loop ------------------------------------------------------------

class Loop:
    """Runs deck items one at a time, timing each and checking its result."""

    def __init__(self, workload, deck, run=None, tracer=None):
        self.workload = workload
        self.deck = deck
        self.run = run or workload.run
        self.tracer = tracer
        self.compute = Speed(compute_reference)
        self.spawn = Speed(spawn_reference)
        #: the speed that scales the operations: a CLI run is a fresh process
        self.speed = self.spawn if workload.runs_in_child else self.compute
        # deck index, start and wall seconds of each correct operation, in
        # arrays so that the runner's own memory hardly grows with the run
        self.indices, self.starts, self.walls = array("l"), array("d"), array("d")
        self.child_rss_kb = []
        self.attempted = 0
        self.failed = 0

    def step(self, index: int) -> None:
        item = self.deck[index]
        op_id = self.attempted
        self.attempted += 1
        self.compute.sample_if_due()
        self.spawn.sample_if_due()
        start = perf_counter()
        try:
            if self.tracer is None:
                result = self.run(item)
            else:
                with self.tracer.operation(op_id, f"op.{self.workload.name}"):
                    result = self.run(item)
            elapsed = perf_counter() - start
            if self.tracer is None:
                ok = self.workload.check(item, result)
            else:
                with self.tracer.pause():
                    ok = self.workload.check(item, result)
        except Exception:
            # a failed operation counts against the run and the loop goes on
            ok = False
            if self.failed == 0:
                traceback.print_exc()
        if ok:
            self.indices.append(index)
            self.starts.append(start)
            self.walls.append(elapsed)
            if self.workload.runs_in_child:
                self.child_rss_kb.append(result.maxrss_kb)
        else:
            self.failed += 1
            if self.failed <= 10:
                print(f"perfbench: wrong result for deck item {index}", file=sys.stderr)

    @property
    def samples(self):
        """(deck index, start, wall seconds) of each correct operation."""
        return zip(self.indices, self.starts, self.walls)

    def run_for(self, seconds: float, between) -> None:
        """One whole pass through the deck at least, then on until time is up;
        between() runs before each operation, outside its timing."""
        deadline = perf_counter() + seconds
        index = 0
        while index < len(self.deck) or perf_counter() < deadline:
            between()
            self.step(index % len(self.deck))
            index += 1

    def one_pass(self) -> tuple:
        """One pass through the deck; returns its start and end."""
        start = perf_counter()
        for index in range(len(self.deck)):
            self.step(index)
        return start, perf_counter()

    def scaled(self, span: tuple) -> float:
        """Scaled seconds of a pass from its start and end."""
        start, end = span
        return (end - start) * self.speed.scale(start, end)


def timing_metrics(workload, deck, samples, scale) -> dict:
    """Operation-time percentiles and work rate, each time multiplied by scale(start)."""
    per_item = [[] for _ in deck]
    times = []
    for index, start, elapsed in samples:
        t = elapsed * scale(start)
        per_item[index].append(t)
        times.append(t)
    if not times:
        return {"op_p50_ms": 0.0, "op_tail_ms": 0.0, "work_per_s": 0.0}, 0, 0
    done = [i for i, ts in enumerate(per_item) if ts]
    typical = [statistics.median(per_item[i]) for i in done]
    work = sum(workload.work(deck[i]) for i in done)
    # percentiles run over the inputs, each at its median time; a deck of one
    # input (paper-verify) has them over its repetitions instead
    spread = typical if len(deck) > 1 else times
    tail = percentile(spread, workload.tail_pct) if len(spread) > 1 else spread[0]
    return ({"op_p50_ms": statistics.median(spread) * 1e3, "op_tail_ms": tail * 1e3,
             "work_per_s": work / sum(typical)},
            sum(t > tail for t in spread), len(done))


def end_to_end(workload, deck, seed: int, seconds: float):
    loop = Loop(workload, deck)
    probes = SetupProbes(workload.name, seed, seconds, loop.spawn)
    loop.run_for(seconds, between=probes.probe_if_due)
    setup, setup_wall = probes.finish()
    scaled, beyond, done = timing_metrics(workload, deck, loop.samples, loop.speed.scale)
    wall, _, _ = timing_metrics(workload, deck, loop.samples, lambda t: 1.0)
    if workload.runs_in_child:
        rss_kb = statistics.median(loop.child_rss_kb) if loop.child_rss_kb else 0
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(loop.walls)
    print(f"# machine speed: compute_reference() took "
          f"{statistics.median(loop.compute.took) * 1e3:.3f} ms, spawn_reference() "
          f"{statistics.median(loop.spawn.took) * 1e3:.3f} ms (medians of "
          f"{len(loop.spawn.took)}); times are scaled to {REFERENCE_S * 1e3:g} ms")
    metrics = {
        "setup_s": (statistics.median(setup),
                    f"{len(setup)} probes; wall={statistics.median(setup_wall):.6g}s"),
        "peak_rss_mb": (rss_kb / 1024, "median of CLI processes"
                        if workload.runs_in_child else "this process"),
        "op_p50_ms": (scaled["op_p50_ms"],
                      f"inputs={done} ops={n}; wall={wall['op_p50_ms']:.6g}ms"),
        "op_tail_ms": (scaled["op_tail_ms"],
                       f"p{workload.tail_pct} of {'inputs' if len(deck) > 1 else 'ops'}, "
                       f"{beyond} beyond; wall={wall['op_tail_ms']:.6g}ms"),
        "work_per_s": (scaled["work_per_s"],
                       f"{workload.work_unit} per busy second over {done}/{len(deck)} "
                       f"inputs; wall={wall['work_per_s']:.6g}/s"),
    }
    return metrics, loop.attempted, loop.failed


# -- the traced run -------------------------------------------------------------

def traced_cli_run(tracer: Tracer):
    """Run one traced CLI child and fold its trace in; returns its result."""
    def run(command):
        result = run_cli([sys.executable, str(HERE / "child.py"), "trace-cli"])
        output, _, trace_line = result.stdout.rstrip(b"\n").rpartition(b"\n")
        doc = json.loads(trace_line)
        tracer.merge(doc["trace"], tracer.op_id)
        result.code, result.stdout = doc["code"], output + b"\n"
        return result
    return run


def per_layer(workload, deck, seed: int, seconds: float):
    """Pairs of one untraced and one traced pass, alternating which goes
    first, until time is up.  The layers are read off the traced passes; the
    overhead compares the two passes of each pair, which run back to back,
    and each scaled by the reference speed measured over it, so the
    machine's drift over the run stays out of it."""
    tracer = Tracer()
    untraced = Loop(workload, deck)
    if workload.runs_in_child:
        traced = Loop(workload, deck, run=traced_cli_run(tracer), tracer=tracer)
    else:
        traced = Loop(workload, deck, tracer=tracer)

    def traced_pass() -> tuple:
        if workload.runs_in_child:
            return traced.one_pass()
        tracer.install()
        try:
            return traced.one_pass()
        finally:
            tracer.uninstall()

    deadline = perf_counter() + seconds
    spans = []          # (untraced pass, traced pass), each as (start, end)
    last_pair_s = 0.0
    while len(spans) < TRACE_PAIRS or perf_counter() + last_pair_s <= deadline:
        began = perf_counter()
        if len(spans) % 2 == 0:
            plain = untraced.one_pass()
            spans.append((plain, traced_pass()))
        else:
            with_trace = traced_pass()
            spans.append((untraced.one_pass(), with_trace))
        last_pair_s = perf_counter() - began
    pairs = [(untraced.scaled(u), traced.scaled(t)) for u, t in spans]
    metrics = {name: (value, "per deck pass") for name, value in
               tracer.layer_metrics(len(pairs)).items()}
    metrics.update({name: (value, f"median of {IMPORTTIME_PROBES}")
                    for name, value in import_times().items()})
    metrics["trace.overhead_s"] = (statistics.median(t - u for u, t in pairs),
                                   f"scaled, median over {len(pairs)} pairs of passes")
    metrics["trace.overhead_share"] = (statistics.median(t / u - 1 for u, t in pairs),
                                       f"of the untraced pass, median over {len(pairs)} pairs")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_file.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "fields": ["op", "span", "parent", "name", "start_s", "end_s"],
        "spans": tracer.spans,
    }) + "\n")
    print(f"# spans: {spans_file.relative_to(ROOT)} ({len(tracer.spans)})")
    return metrics, untraced.attempted + traced.attempted, untraced.failed + traced.failed


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


# -- output ---------------------------------------------------------------------

def report(name: str, seed: int, seconds: float, trace: bool, metrics: dict,
           attempted: int, failed: int) -> dict:
    print(f"# workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"python={platform.python_version()} cpus={os.cpu_count()} "
          f"attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted if attempted else 1:.4g}")
    result = {}
    for metric, (value, samples) in metrics.items():
        unit = layer_unit(metric) if trace else END_TO_END_UNITS[metric]
        result[metric] = {"value": value, "unit": unit}
        shown, scale, shown_unit = ALIASES.get(name, {}).get(metric, (metric, 1, unit))
        # every alias names a time or rate scaled to the reference speed
        alias = f"  [{metric}]" if shown != metric else ""
        shown = f"{shown} (scaled)" if alias else shown
        print(f"{name:<17} {shown:<40} {value * scale:>14.6g} {shown_unit:<6} "
              f"n: {samples}{alias}")
    return result


def pin_to_one_cpu() -> None:
    """Keep this process, its children and the speed reference on one CPU, so
    the reference measures the CPU the work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_to_one_cpu()
    workload = WORKLOADS[name]
    deck = workload.build(seed)
    measure = per_layer if trace else end_to_end
    metrics, attempted, failed = measure(workload, deck, seed, seconds)
    result = report(name, seed, seconds, trace, metrics, attempted, failed)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so set-up and peak RSS stay its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        doc = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the workload's inputs; the same seed, the same inputs")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed loop runs; it completes one deck pass at least")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a separate traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
