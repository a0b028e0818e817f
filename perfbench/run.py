"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload order84-cli --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the run is timed without tracing and reports the
end-to-end metrics; with ``--trace 1`` it runs one untraced round and
one traced round and reports the per-layer metrics and the tracing
overhead (the gap between the two rounds).  ``--workload all`` runs each
benchmark workload in its own process.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Rounds run back to back, one client, and a new round starts only while
it is expected to end within ``--seconds``; every run has at least one
round.  Set-up is timed in fresh processes, several times per run.
Times are reported at reference host speed (see hostclock.py); the raw
times are in the ``info`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from checkout import OUTPUT, TEMP_ROOT, MissingSource, commit, import_library, src_lines
from hostclock import HostClock

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5


@dataclass
class Round:
    start: float = 0.0  # time.time() bounds, for the host clock
    end: float = 0.0
    seconds: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)  # (instance index, message)
    summaries: list = field(default_factory=list)
    artifact_bytes: int = 0


def run_round(workload, instances, tracer=None) -> Round:
    """Run every instance once; only the pipelines themselves are timed."""
    rnd = Round(start=time.time())
    for i, inst in enumerate(instances):
        rnd.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span(f"bench.{inst.label}") if tracer else nullcontext():
                result = workload.run(inst)
        except Exception as exc:  # a failed operation, e.g. BudgetExceeded
            rnd.seconds += time.perf_counter() - t0
            traceback.print_exc()
            rnd.failures.append((i, f"{inst.label}: {type(exc).__name__}: {exc}"))
            rnd.summaries.append(None)
            workload.cleanup(inst)
            continue
        rnd.seconds += time.perf_counter() - t0
        if tracer:
            tracer.on = False
        try:
            outcome = workload.check(inst, result)
        except Exception as exc:
            traceback.print_exc()
            outcome = None
            rnd.failures.append((i, f"{inst.label}: check raised {type(exc).__name__}: {exc}"))
        finally:
            workload.cleanup(inst)
            if tracer:
                tracer.on = True
        if outcome is not None:
            rnd.failures += [(i, f"{inst.label}: {msg}") for msg in outcome.failures]
            rnd.summaries.append(outcome.summary)
            rnd.artifact_bytes += outcome.artifact_bytes
    rnd.end = time.time()
    return rnd


def measure_setup(name: str, seed: int, workdir: str) -> list:
    """Seconds from process start to groups built, in fresh processes."""
    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup-{i}")
        os.makedirs(probe_dir)
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), probe_dir],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def failed_instances(rounds) -> set:
    """(round, instance) pairs that failed a check or whose work counters
    differ from the first round's; one seed must repeat the same work."""
    bad = set()
    first = rounds[0].summaries
    for r, rnd in enumerate(rounds):
        bad.update((r, i) for i, _ in rnd.failures)
        bad.update((r, i) for i, (a, b) in enumerate(zip(rnd.summaries, first)) if a != b)
    return bad


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    import workloads

    workload = workloads.WORKLOADS[name]
    TEMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=TEMP_ROOT)
    clock = HostClock(os.path.join(workdir, "host-clock.txt"))
    try:
        clock.start()
        setup_start = time.time()
        setup_samples = measure_setup(name, seed, workdir)
        setup_end = time.time()
        instances = workload.setup(seed, workdir)
        rounds = [run_round(workload, instances)]
        if trace:
            from tracer import Tracer, layer_metrics, layer_table

            tracer = Tracer()
            tracer.install()
            tracer.on = True
            try:
                with tracer.span("bench.setup"):
                    instances = workload.setup(seed, workdir)
                rounds.append(run_round(workload, instances, tracer))
            finally:
                tracer.on = False
                tracer.uninstall()
        else:
            start = time.perf_counter() - rounds[0].seconds
            while time.perf_counter() - start + rounds[-1].seconds <= seconds:
                rounds.append(run_round(workload, instances))
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    round_factors = [clock.factor(r.start, r.end) for r in rounds]
    walls = [r.seconds / f for r, f in zip(rounds, round_factors)]
    setup_factor = clock.factor(setup_start, setup_end)
    attempted = sum(r.attempted for r in rounds)
    failed = len(failed_instances(rounds))
    for r, rnd in enumerate(rounds):
        for _, msg in rnd.failures:
            print(f"FAILED round {r} {msg}", file=sys.stderr)
    if any(rnd.summaries != rounds[0].summaries for rnd in rounds):
        print("FAILED work counters differ between rounds of one seed", file=sys.stderr)
    info = {
        "workload": name,
        "seed": seed,
        "commit": commit(),
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "rounds": len(rounds),
        "wall_raw_s": [r.seconds for r in rounds],
        "host_factor": round_factors,
        "setup_raw_s": setup_samples,
        "setup_host_factor": setup_factor,
        "fail_ratio": failed / attempted,
        "counters": rounds[0].summaries,
    }
    if trace:
        metrics = layer_metrics(tracer.spans)
        metrics["cli.artifact_bytes"] = (rounds[-1].artifact_bytes, "bytes")
        metrics["trace.overhead_s"] = (walls[-1] - walls[0], "s")
        info["layers"] = layer_table(tracer.spans)
        OUTPUT.mkdir(exist_ok=True)
        info["spans_file"] = str(OUTPUT / f"spans-{name}-seed{seed}.json")
        tracer.write(info["spans_file"])
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_samples) / setup_factor, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_report(info: dict, result: dict) -> None:
    print(
        f"== {info['workload']}  seed {info['seed']}  rounds {info['rounds']}  "
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"fail_ratio {info['fail_ratio']:g}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    layers = info.get("layers")
    if layers:
        wall = info["wall_raw_s"][-1]
        print(f"  {'layer':<10} {'self_s':>10} {'share':>7} {'calls':>8}  counters")
        for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            counters = " ".join(f"{k}={v}" for k, v in sorted(row["counters"].items()))
            print(
                f"  {layer:<10} {row['self_s']:>10.4f} {row['self_s'] / wall:>7.1%} "
                f"{row['calls']:>8}  {counters}"
            )
        raw = info["wall_raw_s"]
        print(f"  traced round {raw[1]:.3f} s, untraced {raw[0]:.3f} s (raw)")
    print("info " + json.dumps({k: v for k, v in info.items() if k != "layers"}))


def run_all(args) -> int:
    """Each benchmark workload in its own process, so peak RSS is per workload."""
    import workloads

    results = {}
    for name in (w.name for w in workloads.BENCHMARK):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
    except MissingSource as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, "
                     + ", ".join(workloads.WORKLOADS))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(out["info"], out["result"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
