"""coreseq benchmark: one command, three workloads, one process, one thread.

    python3 bench/run.py --workload {decide,sweep,verify} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout that holds this
file; without it the command exits 1 and prints no result.

The timed phase runs rounds of items until ``--seconds`` have passed
(the round in progress finishes).  Each item's output is checked against
a reference after its timer stops; an item that raises, hits a resource
cap or disagrees with its reference is failed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics, each as listed in ``BENCHMARK.json``.  A readable
summary and the machine facts go to standard error; everything, spans
included, is also written under ``.bench_out/``.

Times are reported at a reference machine speed, because the speed of a
shared machine drifts by tens of percent over seconds to minutes.  A
fixed pure-Python probe runs every ``PROBE_INTERVAL`` seconds of the
timed phase and around each set-up process, and each stretch of times is
multiplied by ``PROBE_REFERENCE`` over the probe time on either side of
it.  The unscaled figures go to the results file.

With ``--trace 1`` every round is run twice on the same inputs, once
traced and once not, alternating which goes first; per-layer metrics come
from the traced passes, and ``trace.overhead`` is the traced passes' busy
time over the untraced passes' minus one.

Set-up time is measured in fresh processes: the command starts itself
``SETUP_REPEATS`` times with ``--setup-only``, times each from launch to
its "ready" line, and reports the median.  Those processes only set up,
one at a time, and are waited for.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import FIELDS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# the tail is read at this percentile; see README.md for why not higher
TAIL_PERCENTILE = 90
PROBE_REPEATS = 3
PROBE_INTERVAL = 0.25   # seconds of timed phase between probes
PROBE_REFERENCE = 0.002  # probe time at the reference speed, in seconds


def load_coreseq(tracer):
    """Import coreseq (with its CLI module, as the ``coreseq`` command does)
    from this checkout's ``src/``, never from anywhere else."""
    if not (SRC / "coreseq" / "__init__.py").is_file():
        raise SystemExit(f"bench: no coreseq sources under {SRC}")  # exit status 1
    sys.path.insert(0, str(SRC))
    imp = tracer.wrap("cli.import", importlib.import_module) if tracer else importlib.import_module
    imp("coreseq.cli")
    import coreseq

    if Path(coreseq.__file__).resolve().parent != SRC / "coreseq":
        raise SystemExit(f"bench: imported coreseq from {coreseq.__file__}, not {SRC}")


def set_up(args, tracer):
    """Import coreseq and prepare the workload's inputs and references."""
    load_coreseq(tracer)
    import workloads  # imports coreseq, so only once src/ is on the path

    sizes = workloads.TOY if args.toy else workloads.FULL
    return workloads.WORKLOADS[args.workload](workloads.Layers(tracer), args.seed, sizes)


def time_setups(args) -> list[float]:
    cmd = [sys.executable, __file__, "--setup-only", "--seconds", "0", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(SETUP_REPEATS):
        speed = probe_speed()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: set-up process failed (exit {code})")
        times.append(elapsed * PROBE_REFERENCE / statistics.mean((speed, probe_speed())))
    return times


def _probe() -> int:
    d: dict = {}
    for i in range(3000):
        t = (i % 97, i % 13, i)
        d[t] = d.get(t, 0) + 1
    return len(sorted(d, key=lambda t: (t[1], t[0])))


def probe_speed() -> float:
    """Machine slowness right now: median time of a fixed pure-Python probe.

    The collector is off meanwhile, so the size of the program's heap does
    not change the reading.
    """
    times = []
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _probe()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    n = len(sorted_values)
    rank = max(1, -(-n * pct // 100))
    return sorted_values[int(rank) - 1]


class Run:
    """The timed phase: rounds of items, their latencies and failures."""

    def __init__(self, workload, plain, traced, tracer):
        self.workload = workload
        self.plain = plain
        self.traced = traced
        self.tracer = tracer
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.probes: list[float] = []
        self.busy = {"plain": 0.0, "traced": 0.0}
        self.plain_items = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.rounds = 0

    def go(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while self.rounds == 0 or time.perf_counter() < deadline:
            inputs = self.workload.round_inputs()
            passes = ["plain"]
            if self.tracer:
                passes = ["traced", "plain"] if self.rounds % 2 == 0 else ["plain", "traced"]
            for mode in passes:
                gc.collect()
                self._pass(inputs, mode)
            self.rounds += 1

    def _pass(self, inputs, mode: str) -> None:
        traced = mode == "traced"
        layers = self.traced if traced else self.plain
        busy = 0.0
        items = self.workload.items(inputs, layers)
        n = len(items)
        segment: list[float] = []
        before = probe_speed()
        next_probe = time.perf_counter() + PROBE_INTERVAL
        for idx, (run, check) in enumerate(items):
            item_id = self.attempted
            if traced:
                self.tracer.item = item_id
                run = self.tracer.wrap("bench.item", run)
            t0 = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # a raising item is a failed item; the run goes on
                out = exc
            t1 = time.perf_counter()
            segment.append(t1 - t0)
            if t1 >= next_probe or idx == n - 1:
                after = probe_speed()
                busy += self._record(segment, (before + after) / 2)
                before, segment = after, []
                next_probe = time.perf_counter() + PROBE_INTERVAL
            self.attempted += 1
            if isinstance(out, Exception):
                self.failures.append(f"item {item_id}: {type(out).__name__}: {out}")
                continue
            try:
                msg = check(out)
            except Exception as exc:  # a reference that cannot be computed fails the item
                msg = f"reference check raised {type(exc).__name__}: {exc}"
            if msg is not None:
                self.failures.append(f"item {item_id}: {msg}")
        self.busy[mode] += busy
        if not traced:
            self.plain_items += n

    def _record(self, segment: list[float], speed: float) -> float:
        """Keep a stretch of item times, scaled to the reference speed by
        the probes taken on either side of it; return their scaled sum."""
        self.probes.append(speed)
        scale = PROBE_REFERENCE / speed
        self.raw_latencies.extend(segment)
        scaled = [x * scale for x in segment]
        self.latencies.extend(scaled)
        return sum(scaled)


def end_to_end(run: Run, setup_times: list[float]) -> tuple[dict, dict]:
    lat = sorted(run.latencies)
    values = {
        "items_per_s": run.plain_items / run.busy["plain"],
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_tail_ms": percentile(lat, TAIL_PERCENTILE) * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    extra = {
        "samples": len(lat),
        "tail_percentile": TAIL_PERCENTILE,
        "highest_percentile_with_10_beyond": round(100 * (len(lat) - 10) / len(lat), 3)
        if len(lat) > 10 else None,
        "latency_at_that_percentile_ms": lat[-11] * 1e3 if len(lat) > 10 else None,
        "latency_max_ms": lat[-1] * 1e3,
        "setup_samples_s": setup_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_median_s": statistics.median(run.probes),
        "raw_items_per_s": len(run.raw_latencies) / sum(run.raw_latencies),
        "raw_latency_p50_ms": percentile(sorted(run.raw_latencies), 50) * 1e3,
        "raw_latency_tail_ms": percentile(sorted(run.raw_latencies), TAIL_PERCENTILE) * 1e3,
    }
    return values, extra


SELF_TIME = {
    "engine.decide_s": "engine.decide",
    "engine.closure_s": "engine.closure",
    "intuitionistic.decide_s": "intuitionistic.decide",
    "intuitionistic.countermodel_s": "intuitionistic.countermodel",
    "kernel.load_s": "kernel.load",
    "kernel.check_s": "kernel.check",
    "kernel.serialize_s": "kernel.serialize",
    "syntax.parse_s": "syntax.parse",
    "admissibility.self_s": "admissibility.test",
    "bench.self_s": "bench.item",
}
CALLS = {"syntax.parse_calls": "syntax.parse", "intuitionistic.calls": "intuitionistic.decide"}
PER_ITEM_COUNTS = {
    "engine.goals_distinct": "goals_distinct",
    "engine.goals_expanded": "goals_expanded",
    "kernel.nodes_checked": "nodes_checked",
    "kernel.rejected": "rejected",
    "intuitionistic.models_found": "models_found",
    "intuitionistic.unresolved": "unresolved",
}


def per_layer(run: Run, tracer) -> dict:
    spans = tracer.spans
    self_times = tracer.self_times()
    timed_self: dict[str, float] = {}
    timed_total: dict[str, float] = {}
    setup_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _parent, item), own in zip(spans, self_times):
        if item == "setup":
            setup_total[name] = setup_total.get(name, 0.0) + (end - start)
        else:
            timed_self[name] = timed_self.get(name, 0.0) + own
            timed_total[name] = timed_total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
    n = calls.get("bench.item", 0)
    per_item = lambda x: x / n if n else 0.0  # noqa: E731
    counts = run.workload.counts
    values = {m: per_item(timed_self.get(s, 0.0)) for m, s in SELF_TIME.items()}
    values["admissibility.test_s"] = per_item(timed_total.get("admissibility.test", 0.0))
    values.update({m: per_item(calls.get(s, 0)) for m, s in CALLS.items()})
    # counts come from both passes of every round
    attempted = run.attempted
    values.update({m: counts[c] / attempted for m, c in PER_ITEM_COUNTS.items()})
    values["engine.provable_share"] = (
        counts["provable"] / counts["engine_queries"] if counts["engine_queries"] else 0.0
    )
    values["engine.closure_sequents"] = (
        counts["closure_sequents"] / counts["closures"] if counts["closures"] else 0.0
    )
    values["syntax.enumerate_s"] = setup_total.get("syntax.enumerate", 0.0)
    values["cli.import_s"] = setup_total.get("cli.import", 0.0)
    values["trace.overhead"] = run.busy["traced"] / run.busy["plain"] - 1
    values["trace.items"] = n
    return values


def machine_facts(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("decide", "sweep", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        set_up(args, None)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tracer = Tracer() if args.trace else None
    workload = set_up(args, tracer)
    setup_times = time_setups(args)

    import workloads

    traced = workloads.Layers(tracer) if tracer else None
    run = Run(workload, workloads.Layers(None), traced, tracer)
    run.go(args.seconds)

    # in a traced run the latencies mix traced and untraced passes
    e2e, extra = end_to_end(run, setup_times)
    values = per_layer(run, tracer) if tracer else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(run.failures)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}

    facts = machine_facts(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "facts": facts,
        "result": result,
        "failure_rate": failed / run.attempted,
        "failures": run.failures[:50],
        "rounds": run.rounds,
        "end_to_end": e2e,
        "detail": extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": FIELDS, "spans": tracer.spans}, fh)

    log = sys.stderr
    print(" ".join(f"{k}={v}" for k, v in facts.items()), file=log)
    print(f"rounds={run.rounds} attempted={run.attempted} failed={failed} "
          f"failure_rate={failed / run.attempted:g} samples={extra['samples']}", file=log)
    for msg in run.failures[:5]:
        print(f"FAILED {msg}", file=log)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=log)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
